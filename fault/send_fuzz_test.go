//go:build fuzz

package fault

import (
	"math"
	"testing"
)

// FuzzSendTally holds Send and Receive to the rule on Counts for any
// valid plan and transmission: each returns a fate and tallies exactly
// the faults that fate holds, and a cut carries no coin. Build-tagged like
// the other fuzz targets; CI smokes it through `make fuzz-smoke`.
func FuzzSendTally(f *testing.F) {
	for _, s := range []string{
		"partition:2@1-2,corrupt:1,dup:1",
		"corrupt:0.5,reorder:0.5,dup:0.5",
		"delayspike:3@0-1,reorder:1",
		"stall:0.5:2,dup:0.2",
	} {
		f.Add(s, 1.5, 0.5, uint64(1), uint64(2), uint64(3), uint16(4), uint8(1))
	}
	f.Fuzz(func(t *testing.T, s string, now, at float64, from, to, owner uint64, hops uint16, try uint8) {
		p, err := Parse(s)
		if err != nil || math.IsNaN(now) || math.IsNaN(at) {
			return
		}
		inj := p.Bind(7, 10)
		var n Counts
		fate := inj.Send(now, Hop{T: at, From: from, To: to, Owner: owner, Hops: hops, Try: try}, &n)
		b := func(v bool) uint64 {
			if v {
				return 1
			}
			return 0
		}
		want := Counts{
			PartitionDrops: b(fate.Cut),
			Corrupts:       b(fate.Corrupt),
			Reorders:       b(fate.Reorder && !fate.Corrupt),
			Dups:           b(fate.Dup),
		}
		if n != want {
			t.Fatalf("plan %q: fate %+v tallied %+v, want %+v", s, fate, n, want)
		}
		if fate.Cut && fate != (Fate{Cut: true, Delay: 1}) {
			t.Fatalf("plan %q: a cut request carries coins: %+v", s, fate)
		}
		if fate.Corrupt != (fate.Mask != 0) || fate.Byte < 0 || fate.Byte > 2 {
			t.Fatalf("plan %q: corrupt %v with byte %d mask %#x", s, fate.Corrupt, fate.Byte, fate.Mask)
		}
		if fate.Hold < 0 || fate.Hold >= 1 || (!fate.Reorder && fate.Hold != 0) || !(fate.Delay >= 1) {
			t.Fatalf("plan %q: hold %v (reorder %v), delay %v", s, fate.Hold, fate.Reorder, fate.Delay)
		}

		n = Counts{}
		if got := inj.Receive(to, at, &n); n != (Counts{StallDrops: b(!got)}) {
			t.Fatalf("plan %q: Receive = %v tallied %+v", s, got, n)
		}
	})
}
