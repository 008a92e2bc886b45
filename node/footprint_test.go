package node

import (
	"runtime"
	"testing"
	"unsafe"

	"rcm"
	"rcm/overlay"
)

// tableBytes is the memory nd's request table and dedupe window hold:
// the slot array, ring and index, and the pooled records with their
// candidate slices.
func tableBytes(tb *reqTable) int {
	b := cap(tb.slots)*int(unsafe.Sizeof(reqSlot{})) +
		cap(tb.seen.ring)*int(unsafe.Sizeof(uint64(0))) +
		cap(tb.seen.index)*int(unsafe.Sizeof(uint16(0)))
	for _, st := range tb.fwds.recs {
		b += int(unsafe.Sizeof(*st)) + cap(st.cands)*int(unsafe.Sizeof(overlay.ID(0)))
	}
	b += len(tb.waits.recs) * int(unsafe.Sizeof(originWait{}))
	b += (cap(tb.fwds.recs) + cap(tb.waits.recs)) * int(unsafe.Sizeof(uintptr(0)))
	return b + (cap(tb.fwds.free)+cap(tb.waits.free))*int(unsafe.Sizeof(uint32(0)))
}

// TestNodeFootprint: a node costs what it holds. The Node value is at
// most 1 KiB; a started node on a virtual network that has handled
// nothing costs at most 4 KiB of heap, endpoint and store included; and
// a relay that has accepted 2·seenCap distinct requests holds a full
// window in at most 64 KiB of request table and window.
func TestNodeFootprint(t *testing.T) {
	if size := unsafe.Sizeof(Node{}); size > 1<<10 {
		t.Errorf("a Node is %d bytes, want at most 1 KiB", size)
	}
	proto, err := rcm.NewProtocol("chord", rcm.Config{Bits: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	const n = 1 << 10
	sim := NewSimNetwork()
	addrs := make([]string, n)
	nodes := make([]*Node, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range nodes {
		tr := sim.Endpoint()
		addrs[i] = tr.Addr()
		if nodes[i], err = New(Config{
			Protocol:  proto,
			ID:        overlay.ID(i),
			Transport: tr,
			AddrOf:    func(id overlay.ID) string { return addrs[id] },
		}); err != nil {
			t.Fatal(err)
		}
		nodes[i].Start()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n; per > 4<<10 {
		t.Errorf("an idle started node costs %d bytes of heap, want at most 4 KiB", per)
	} else {
		t.Logf("an idle started node costs %d bytes of heap", per)
	}

	// A destination two hops from node 0: its relay then holds nothing of
	// each lookup but a forward attempt and the request's window entry.
	fwd := proto.(rcm.Forwarder)
	var dst, relay overlay.ID
	for dst = 2; ; dst++ {
		if relay = fwd.AppendCandidateHops(nil, 0, dst)[0]; relay != dst && fwd.AppendCandidateHops(nil, relay, dst)[0] == dst {
			break
		}
	}
	for i := 0; i < 2*seenCap; i++ {
		if r := nodes[0].Lookup(dst); !r.OK() || r.Hops != 2 {
			t.Fatalf("lookup %d of %d from 0 through %d: %+v, want 2 hops", i, dst, relay, r)
		}
	}
	tb := &nodes[relay].reqs
	if len(tb.seen.ring) != seenCap {
		t.Fatalf("the relay's window holds %d ids after %d requests, want %d", len(tb.seen.ring), 2*seenCap, seenCap)
	}
	if b := tableBytes(tb); b > 64<<10 {
		t.Errorf("the relay's request table and window hold %d bytes, want at most 64 KiB", b)
	} else {
		t.Logf("the relay's request table and window hold %d bytes", b)
	}
	for _, nd := range nodes {
		nd.Close()
	}
}
