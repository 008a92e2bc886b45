package markov

import (
	"strings"
	"testing"
)

func TestDOTStructure(t *testing.T) {
	c, ep, err := TreeChain(3, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	dot := c.DOT("tree h=3")
	if !strings.HasPrefix(dot, "digraph chain {") || !strings.HasSuffix(dot, "}\n") {
		t.Errorf("malformed DOT:\n%s", dot)
	}
	if !strings.Contains(dot, `label="tree h=3"`) {
		t.Errorf("missing title:\n%s", dot)
	}
	// Absorbing states (S3, F) rendered as double circles.
	if got := strings.Count(dot, "doublecircle"); got != 2 {
		t.Errorf("doublecircle count = %d, want 2", got)
	}
	// Edge count: 3 transient states × 2 edges each.
	if got := strings.Count(dot, "->"); got != 6 {
		t.Errorf("edge count = %d, want 6", got)
	}
	if !strings.Contains(dot, `"0.75"`) {
		t.Errorf("missing 1-q edge label:\n%s", dot)
	}
	_ = ep
}

func TestDOTDeterministic(t *testing.T) {
	c1, _, err := XORChain(5, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	c2, _, err := XORChain(5, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if c1.DOT("x") != c2.DOT("x") {
		t.Error("DOT output not deterministic")
	}
}

func TestDOTNoTitle(t *testing.T) {
	c, _, err := TreeChain(2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(c.DOT(""), "label=\"\"") {
		t.Error("empty title rendered")
	}
}

func TestSummaryStateCounts(t *testing.T) {
	// XOR chain at h: Σ_{m=1..h} m + success + failure states.
	for h := 2; h <= 8; h++ {
		c, _, err := XORChain(h, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		want := h*(h+1)/2 + 2
		if c.NumStates() != want {
			t.Errorf("h=%d: states=%d, want %d", h, c.NumStates(), want)
		}
	}
	// Ring chain: 2^h − 1 + 2.
	for h := 2; h <= 8; h++ {
		c, _, err := RingChain(h, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		want := (1 << h) - 1 + 2
		if c.NumStates() != want {
			t.Errorf("ring h=%d: states=%d, want %d", h, c.NumStates(), want)
		}
	}
}

// TestDOTEscaping: titles and state names containing quotes, backslashes
// and newlines must render through Go's %q escaping into valid DOT string
// literals, never raw.
func TestDOTEscaping(t *testing.T) {
	var b Builder
	s0 := b.AddState(`state "zero"`)
	s1 := b.AddState("line\nbreak")
	s2 := b.AddState(`back\slash`)
	b.AddEdge(s0, s1, 0.5)
	b.AddEdge(s0, s2, 0.5)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	dot := c.DOT(`a "quoted" title`)

	if !strings.Contains(dot, `label="a \"quoted\" title";`) {
		t.Errorf("title quotes not escaped:\n%s", dot)
	}
	if !strings.Contains(dot, `label="state \"zero\""`) {
		t.Errorf("state-name quotes not escaped:\n%s", dot)
	}
	if !strings.Contains(dot, `label="line\nbreak"`) {
		t.Errorf("newline not escaped:\n%s", dot)
	}
	if !strings.Contains(dot, `label="back\\slash"`) {
		t.Errorf("backslash not escaped:\n%s", dot)
	}
	// No raw (unescaped) newline may survive inside any label attribute:
	// every line of the output must be a complete statement.
	for _, line := range strings.Split(strings.TrimSuffix(dot, "\n"), "\n") {
		if strings.Count(line, `"`)%2 != 0 {
			t.Errorf("line with unbalanced quotes (raw newline leaked into a label): %q", line)
		}
	}
}

// TestDOTEmptyTitle: an empty title omits the label line entirely.
func TestDOTEmptyTitle(t *testing.T) {
	var b Builder
	b.AddState("only")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	dot := c.DOT("")
	if strings.Contains(dot, "label=") && strings.Contains(strings.SplitN(dot, "\n", 2)[1], "  label=") {
		t.Errorf("empty title still rendered a graph label:\n%s", dot)
	}
	if !strings.Contains(dot, `n0 [label="only", shape=doublecircle];`) {
		t.Errorf("missing absorbing singleton node:\n%s", dot)
	}
}
