package node

import (
	"testing"
	"time"
)

// TestUDPSendResolvesOnce: a destination is resolved on the first
// datagram and served from the transport's cache afterwards, whatever
// the address family of the socket; an unresolvable one is an error and
// is not cached.
func TestUDPSendResolvesOnce(t *testing.T) {
	for _, bind := range []string{"127.0.0.1:0", ":0"} { // IPv4 socket, dual-stack socket
		a, err := ListenUDP(bind)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ListenUDP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := a.Send(b.Addr(), []byte{byte(i)}); err != nil {
				t.Fatalf("%s: send %d: %v", bind, i, err)
			}
			if pkt := recvOne(t, b, time.Second); len(pkt) != 1 || pkt[0] != byte(i) {
				t.Fatalf("%s: datagram %d arrived as %v", bind, i, pkt)
			}
		}
		if err := a.Send("127.0.0.1:99999", []byte{0}); err == nil {
			t.Errorf("%s: send to an unresolvable address succeeded", bind)
		}
		if got := len(a.(*udpTransport).peers); got != 1 {
			t.Errorf("%s: %d cached destinations after 3 sends to one peer, want 1", bind, got)
		}
		a.Close()
		b.Close()
	}
}
