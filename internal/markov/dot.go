package markov

import (
	"fmt"
	"strings"
)

// DOT renders the chain in Graphviz dot syntax, reproducing the paper's
// chain diagrams (Fig. 4(a,b), 5(b), 8(a,b)) as machine-readable artifacts.
// Absorbing states are drawn as double circles; edges carry their
// transition probabilities. Output is deterministic (states in ID order,
// edges in declaration order).
func (c *Chain) DOT(title string) string {
	var b strings.Builder
	b.WriteString("digraph chain {\n")
	if title != "" {
		fmt.Fprintf(&b, "  label=%q;\n", title)
	}
	b.WriteString("  rankdir=LR;\n")
	for s := 0; s < c.NumStates(); s++ {
		shape := "circle"
		if c.Absorbing(StateID(s)) {
			shape = "doublecircle"
		}
		fmt.Fprintf(&b, "  n%d [label=%q, shape=%s];\n", s, c.names[s], shape)
	}
	for s := 0; s < c.NumStates(); s++ {
		for _, e := range c.edges[s] {
			fmt.Fprintf(&b, "  n%d -> n%d [label=\"%.4g\"];\n", s, e.To, e.P)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
