package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestSnapshotSortedAndDeterministic: a snapshot renders its sections
// in the order given — valid JSON with every reading under its section,
// one text line per name — and renders the same bytes twice.
func TestSnapshotSortedAndDeterministic(t *testing.T) {
	var h Histogram
	h.Observe(4)
	s := Snapshot{
		Counters: []NamedValue{{"alpha", 2}, {"zebra", 1}},
		Gauges:   []NamedValue{{"mid", -7}},
		Hists:    []NamedHist{{"lat_us", h}},
	}

	var a, b strings.Builder
	if err := s.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("one snapshot rendered differently twice")
	}
	if i, j := strings.Index(a.String(), `"alpha"`), strings.Index(a.String(), `"zebra"`); i < 0 || j < i {
		t.Errorf("counters not in snapshot order:\n%s", a.String())
	}
	var parsed struct {
		Counters   map[string]int64          `json:"counters"`
		Gauges     map[string]int64          `json:"gauges"`
		Histograms map[string]map[string]any `json:"histograms"`
	}
	if err := json.Unmarshal([]byte(a.String()), &parsed); err != nil {
		t.Fatalf("snapshot JSON invalid: %v\n%s", err, a.String())
	}
	if parsed.Counters["zebra"] != 1 || parsed.Counters["alpha"] != 2 || parsed.Gauges["mid"] != -7 {
		t.Errorf("parsed snapshot wrong: %+v", parsed)
	}
	if parsed.Histograms["lat_us"]["count"].(float64) != 1 {
		t.Errorf("histogram count wrong: %+v", parsed.Histograms["lat_us"])
	}

	var txt strings.Builder
	if err := s.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(txt.String()), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	if got := strings.Join(names, " "); got != "alpha zebra mid lat_us" {
		t.Errorf("text lines %q, want counters, gauges, histograms in snapshot order", got)
	}
}
