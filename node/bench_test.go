package node

import (
	"testing"
	"time"

	"rcm"
	"rcm/overlay"
)

// The live layer's costs are measured by the repository benchmark (bash
// benchmark/run.sh: node.local_op_us, node.store_*_ns, node.per_hop_us);
// these are the ones it has no metric for — the wire codec, and one hop
// on each transport with its allocation count (ROADMAP item 2's target).

var benchMessages = []struct {
	name string
	m    message
}{
	{"lookup", message{Kind: msgReq, Op: OpLookup, Hops: 2, Budget: 40, ReqID: 7<<32 | 9, Dst: 77, Deadline: 1000, Origin: "127.0.0.1:40000"}},
	{"put256", message{Kind: msgReq, Op: OpPut, Hops: 2, Budget: 40, ReqID: 7<<32 | 9, Dst: 77, Key: 1 << 60, Deadline: 1000, Origin: "127.0.0.1:40000", Value: make([]byte, 256)}},
}

func BenchmarkWireEncode(b *testing.B) {
	for _, bm := range benchMessages {
		b.Run(bm.name, func(b *testing.B) {
			b.ReportAllocs()
			var buf []byte
			for i := 0; i < b.N; i++ {
				var err error
				if buf, err = appendWire(buf[:0], &bm.m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var benchDecoded message

func BenchmarkWireDecode(b *testing.B) {
	for _, bm := range benchMessages {
		b.Run(bm.name, func(b *testing.B) {
			pkt, err := appendWire(nil, &bm.m)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if benchDecoded, err = decodeWire(pkt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchPair starts the two nodes of a one-bit chord ring on the given
// substrate: a lookup of the other node's identifier is exactly one hop.
func benchPair(b *testing.B, substrate string) [2]*Node {
	b.Helper()
	proto, err := rcm.NewProtocol("chord", rcm.Config{Bits: 1, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	var trs [2]Transport
	mem := NewMemNetwork()
	for i := range trs {
		if substrate == "mem" {
			trs[i] = mem.Endpoint()
		} else if trs[i], err = ListenUDP("127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
	}
	var nodes [2]*Node
	for i := range nodes {
		nodes[i], err = New(Config{
			Protocol:  proto,
			ID:        overlay.ID(i),
			Transport: trs[i],
			AddrOf:    func(id overlay.ID) string { return trs[id].Addr() },
			Deadline:  time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		nodes[i].Start()
	}
	b.Cleanup(func() {
		nodes[0].Close()
		nodes[1].Close()
	})
	return nodes
}

// BenchmarkOneHopLookup is a request, its acknowledgement and the
// response between two nodes: three datagrams, four loop trips.
func BenchmarkOneHopLookup(b *testing.B) {
	for _, substrate := range []string{"mem", "udp"} {
		b.Run(substrate, func(b *testing.B) {
			nd := benchPair(b, substrate)[0]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := nd.Lookup(1); !res.OK() || res.Hops != 1 {
					b.Fatal(res)
				}
			}
		})
	}
}
