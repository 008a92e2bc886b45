package replica

import (
	"strings"
	"testing"

	"rcm/overlay"
)

func TestSuccessorsPlacement(t *testing.T) {
	space := overlay.MustSpace(4)
	got := Successors(space, nil, 14, 4)
	want := []overlay.ID{14, 15, 0, 1} // wraps the ring
	if len(got) != len(want) {
		t.Fatalf("Successors = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Successors = %v, want %v", got, want)
		}
	}
}

func TestSuccessorsClamping(t *testing.T) {
	space := overlay.MustSpace(1) // two identifiers
	if got := Successors(space, nil, 1, 5); len(got) != 2 || got[0] != 1 || got[1] != 0 {
		t.Fatalf("k beyond space: %v, want [1 0]", got)
	}
	for _, k := range []int{0, 1} {
		if got := Successors(overlay.MustSpace(4), nil, 9, k); len(got) != 1 || got[0] != 9 {
			t.Fatalf("k=%d: %v, want the bare root", k, got)
		}
	}
}

func TestValidateK(t *testing.T) {
	for _, k := range []int{0, 1, MaxReplicas} {
		if err := ValidateK(k); err != nil {
			t.Errorf("ValidateK(%d): %v", k, err)
		}
	}
	for _, k := range []int{-1, MaxReplicas + 1, 100} {
		if err := ValidateK(k); err == nil {
			t.Errorf("ValidateK(%d) accepted an out-of-range factor", k)
		}
	}
}

// xorPlacer is a well-behaved opt-in: owners are the XOR-adjacent ids.
type xorPlacer struct{ bad string }

func (x xorPlacer) AppendReplicaSet(buf []overlay.ID, root overlay.ID, k int) []overlay.ID {
	switch x.bad {
	case "short":
		return buf
	case "dup":
		return append(buf, root, root)
	case "rootless":
		return append(buf, root^1, root)
	case "outside":
		return append(buf, root, 1<<20)
	}
	for i := 0; i < k; i++ {
		buf = append(buf, root^overlay.ID(i))
	}
	return buf
}

func TestForDispatch(t *testing.T) {
	space := overlay.MustSpace(4)

	// No capability: ring successors.
	got, err := For(struct{}{}, space, nil, 3, 2)
	if err != nil || len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Fatalf("For(no capability) = %v, %v", got, err)
	}

	// Capability present: the protocol's own placement wins.
	got, err = For(xorPlacer{}, space, nil, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []overlay.ID{6, 7, 4, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("For(xorPlacer) = %v, want %v", got, want)
		}
	}

	// Contract violations fail loudly.
	for bad, sub := range map[string]string{
		"short":    "owners",
		"dup":      "twice",
		"rootless": "root",
		"outside":  "outside",
	} {
		if _, err := For(xorPlacer{bad: bad}, space, nil, 6, 2); err == nil || !strings.Contains(err.Error(), sub) {
			t.Errorf("For(%s) error = %v, want substring %q", bad, err, sub)
		}
	}
}

// TestTable: the placement table is For of every root, laid out
// root-major with the effective (clamped) k; k <= 1 builds nothing; a
// contract violation fails the whole table.
func TestTable(t *testing.T) {
	for _, k := range []int{0, 1} {
		if tab, got, err := Table(xorPlacer{}, overlay.MustSpace(4), k); tab != nil || got != 1 || err != nil {
			t.Errorf("Table(k=%d) = %v, %d, %v; want nil, 1, nil", k, tab, got, err)
		}
	}
	space := overlay.MustSpace(4)
	tab, k, err := Table(xorPlacer{}, space, 3)
	if err != nil || k != 3 || len(tab) != 16*3 {
		t.Fatalf("Table(k=3) = %d entries, k=%d, %v; want 48, 3", len(tab), k, err)
	}
	for root := overlay.ID(0); root < 16; root++ {
		want, _ := For(xorPlacer{}, space, nil, root, 3)
		for i, id := range want {
			if tab[int(root)*k+i] != id {
				t.Fatalf("root %d: table row %v, want %v", root, tab[int(root)*k:int(root+1)*k], want)
			}
		}
	}
	if _, k, err := Table(struct{}{}, overlay.MustSpace(1), 5); err != nil || k != 2 {
		t.Errorf("Table in a 1-bit space: k=%d, %v; want k clamped to 2", k, err)
	}
	if _, _, err := Table(xorPlacer{bad: "dup"}, space, 2); err == nil {
		t.Error("Table accepted a placement that names an owner twice")
	}
}
