//go:build fuzz

package dht

import (
	"testing"

	"rcm/overlay"
)

// FuzzForwarderOracle holds the closed-form forwarding of Chord, Kademlia
// and the hypercube to the scan they replaced (matchesReference) on an overlay,
// maintenance history, failure pattern and pair the fuzzer chooses: bits
// folds into 1–10, maint is the number of seeded Join / Stabilize calls
// applied first, x folds into the space (it must be a node) and dst is
// taken as is, in the space or not. Seeded from the fixed regression
// corpus of forwarder_property_test.go. Build-tagged like FuzzParseMessage;
// CI smokes both through `make fuzz-smoke`.
func FuzzForwarderOracle(f *testing.F) {
	for _, c := range forwarderCorpus {
		size := uint64(1) << uint(c.bits)
		f.Add(uint8(c.bits-1), c.seed, c.seed*7919, size-1, c.seed^0xBEEF, uint16(0))
		f.Add(uint8(c.bits-1), c.seed, size/2, size+c.seed, c.seed^0xF0F0, uint16(4*size))
	}
	f.Fuzz(func(t *testing.T, bits uint8, seed, x, dst, aliveSeed uint64, maint uint16) {
		for _, name := range []string{"chord", "kademlia", "can"} {
			p, _ := mustForwarder(t, name, 1+int(bits)%10, seed)
			maintain(p, int(maint), seed)
			s := p.Space()
			matchesReference(t, p, overlay.ID(x&(s.Size()-1)), overlay.ID(dst), aliveSets(s, aliveSeed))
		}
	})
}
