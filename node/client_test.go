package node

import (
	"strings"
	"testing"
	"time"

	"rcm/overlay"
)

// TestClientPutGetLookup drives the out-of-band client against a live
// UDP cluster: put through one entry node, get through another, and
// verify the hop accounting includes the entry delivery.
func TestClientPutGetLookup(t *testing.T) {
	nodes := bootCluster(t, "chord", 4, "udp")
	space := overlay.MustSpace(4)

	c1, err := Dial(ClientConfig{Target: nodes[2].Addr(), Space: space, RTO: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Dial(ClientConfig{Target: nodes[9].Addr(), Space: space, RTO: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	if res := c1.Put("alpha", []byte("beta")); !res.OK() {
		t.Fatalf("put: %+v", res)
	}
	got := c2.Get("alpha")
	if !got.OK() || string(got.Value) != "beta" {
		t.Fatalf("get = %+v, want beta", got)
	}
	if got.Hops < 1 {
		t.Errorf("client get took %d hops, want >= 1 (entry delivery counts)", got.Hops)
	}
	if res := c1.Get("never"); res.Err != nil || res.Status != StatusNotFound {
		t.Errorf("missing key = %+v, want StatusNotFound", res)
	}
	for dst := overlay.ID(0); dst < 16; dst++ {
		if res := c2.Lookup(dst); !res.OK() {
			t.Errorf("lookup %d: %+v", dst, res)
		}
	}
	if res := c1.Lookup(99); res.Err == nil || !strings.Contains(res.Err.Error(), "outside") {
		t.Errorf("out-of-space destination accepted: %+v", res)
	}
}

// TestClientUnresponsiveEntry: a client pointed at a dead address fails
// with the entry-node diagnosis after its retransmissions, not a hang.
func TestClientUnresponsiveEntry(t *testing.T) {
	c, err := Dial(ClientConfig{
		Target:      "127.0.0.1:1", // nothing listens there
		Space:       overlay.MustSpace(4),
		RTO:         10 * time.Millisecond,
		Retransmits: 1,
		Deadline:    time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res := c.Lookup(3)
	if res.Err == nil || !strings.Contains(res.Err.Error(), "unresponsive") {
		t.Errorf("dead entry node = %+v, want unresponsive error", res)
	}
}

// TestClientRetransmitsKnob pins ClientConfig.Retransmits to the rule
// node.Config and eventsim.Config follow — zero selects the default of 2,
// a negative value disables retransmission — by counting the datagrams an
// endpoint that never answers receives before the client gives up.
func TestClientRetransmitsKnob(t *testing.T) {
	for _, tc := range []struct {
		retransmits, wantSends int
	}{
		{-1, 1},
		{0, 3},
		{3, 4},
	} {
		mem := NewMemNetwork()
		silent := mem.Endpoint()
		c, err := Dial(ClientConfig{
			Target:      silent.Addr(),
			Space:       overlay.MustSpace(4),
			Transport:   mem.Endpoint(),
			RTO:         5 * time.Millisecond,
			Retransmits: tc.retransmits,
			Deadline:    time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		res := c.Lookup(3)
		c.Close()
		if res.Err == nil || !strings.Contains(res.Err.Error(), "unresponsive") {
			t.Errorf("Retransmits=%d: %+v, want unresponsive error", tc.retransmits, res)
		}
		silent.Close() // Recv drains what was delivered, then reports closed
		sends := 0
		for {
			if _, _, err := silent.Recv(); err != nil {
				break
			}
			sends++
		}
		if sends != tc.wantSends {
			t.Errorf("Retransmits=%d: %d sends, want %d", tc.retransmits, sends, tc.wantSends)
		}
	}
}
