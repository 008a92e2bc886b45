package node

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"rcm/node/internal/clock"
)

// Transport is the datagram substrate a node sends and receives packets
// on: unreliable, unordered, message-boundary-preserving — UDP semantics.
// The node's retransmission machinery assumes exactly this contract, so an
// in-memory implementation must not add reliability the real network
// lacks.
type Transport interface {
	// Addr returns the transport's own address, the string other nodes
	// send to and the origin carried inside requests.
	Addr() string
	// Send transmits one packet toward addr. Best-effort: packets may be
	// dropped silently; Send errors only on misuse (closed transport,
	// unresolvable address).
	Send(addr string, pkt []byte) error
	// Recv blocks for the next packet, returning it and the sender's
	// address. It returns an error after Close.
	Recv() ([]byte, string, error)
	// Close releases the transport; pending and future Recv calls fail.
	Close() error
}

// pushTransport is the capability of a transport that needs no goroutine
// blocked in Recv: once attached, it calls deliver for every arriving
// datagram, on the sender's goroutine, handing over ownership of pkt.
type pushTransport interface {
	attach(deliver func(pkt []byte, from string))
}

// errClosed is returned by transport operations after Close.
var errClosed = errors.New("node: transport closed")

// udpTransport is the real-socket transport.
type udpTransport struct {
	conn *net.UDPConn
	addr string
	buf  []byte

	mu    sync.Mutex
	peers map[string]netip.AddrPort // resolved destinations, by address string
	names map[netip.AddrPort]string // the reverse: senders, by socket address
}

// udpPeerCap bounds the resolved-destination cache and its reverse; each
// is emptied when it would hold more distinct addresses than this.
const udpPeerCap = 4096

// ListenUDP opens a UDP socket on addr ("127.0.0.1:0" picks a free port)
// and returns the transport bound to it.
func ListenUDP(addr string) (Transport, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("node: resolve %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("node: listen %q: %w", addr, err)
	}
	return &udpTransport{
		conn:  conn,
		addr:  conn.LocalAddr().String(),
		buf:   make([]byte, maxPacket+1),
		peers: make(map[string]netip.AddrPort),
		names: make(map[netip.AddrPort]string),
	}, nil
}

func (t *udpTransport) Addr() string { return t.addr }

func (t *udpTransport) Send(addr string, pkt []byte) error {
	ap, err := t.resolve(addr)
	if err != nil {
		return err
	}
	_, err = t.conn.WriteToUDPAddrPort(pkt, ap)
	return err
}

// resolve returns addr's socket address, resolving each destination once
// for the life of the transport.
func (t *udpTransport) resolve(addr string) (netip.AddrPort, error) {
	t.mu.Lock()
	ap, ok := t.peers[addr]
	t.mu.Unlock()
	if ok {
		return ap, nil
	}
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return ap, fmt.Errorf("node: resolve %q: %w", addr, err)
	}
	// Unmapped, the address suits an IPv4 and a dual-stack socket alike.
	ap = ua.AddrPort()
	ap = netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
	t.mu.Lock()
	t.remember(addr, ap)
	t.mu.Unlock()
	return ap, nil
}

// remember caches addr ↔ ap both ways, emptying a full cache first.
// Callers hold t.mu.
func (t *udpTransport) remember(addr string, ap netip.AddrPort) {
	if len(t.peers) >= udpPeerCap {
		clear(t.peers)
	}
	if len(t.names) >= udpPeerCap {
		clear(t.names)
	}
	t.peers[addr] = ap
	t.names[ap] = addr
}

func (t *udpTransport) Recv() ([]byte, string, error) {
	n, ap, err := t.conn.ReadFromUDPAddrPort(t.buf)
	if err != nil {
		return nil, "", err
	}
	pkt := append([]byte(nil), t.buf[:n]...)
	ap = netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
	t.mu.Lock()
	from, ok := t.names[ap]
	if !ok {
		from = ap.String()
		t.remember(from, ap)
	}
	t.mu.Unlock()
	return pkt, from, nil
}

func (t *udpTransport) Close() error { return t.conn.Close() }

// MemNetwork is an in-memory datagram network: a set of named endpoints
// with UDP semantics (unordered across endpoints, silently dropping into
// full mailboxes), letting a whole cluster run in one process with no
// sockets. It is the substrate the conformance and smoke tests replay
// eventsim schedules on.
type MemNetwork struct {
	mu   sync.RWMutex
	next int
	eps  map[string]*memEndpoint
	// vt is the virtual clock of a NewSimNetwork network, nil on the
	// wall clock.
	vt *clock.Virtual
}

// NewMemNetwork returns an empty network on the wall clock: a datagram
// is delivered as it is sent, and nodes run their own goroutines.
func NewMemNetwork() *MemNetwork {
	return &MemNetwork{eps: make(map[string]*memEndpoint)}
}

// NewSimNetwork returns an empty network on virtual time. A datagram
// arrives simLatency after it is sent; its delivery, every function
// posted to a node, every node's timer wake-up and every request a
// node's fault plan holds back is one entry of the network's single
// (time, arming order) queue. Nodes on it run no goroutine: a caller
// blocked in Lookup, Get, Put, Kill, Restart, Metrics or Close steps the
// queue, one entry at a time, until its own reply is in, and time
// advances only as it does. Timeouts therefore cost no wall-clock time,
// and with one caller at a time a run is a function of the calls made —
// Recv on an endpoint is for the test that steps the network itself.
func NewSimNetwork() *MemNetwork {
	return &MemNetwork{eps: make(map[string]*memEndpoint), vt: new(clock.Virtual)}
}

// simLatency is the one-way latency of every datagram on a
// NewSimNetwork network.
const simLatency = time.Millisecond

// memMailboxCap bounds an endpoint's receive queue; packets beyond it are
// dropped, as a kernel socket buffer would.
const memMailboxCap = 4096

type memPacket struct {
	data []byte
	from string
}

// memEndpoint queues arriving packets in a mailbox for Recv — made on
// first use, so an endpoint attached to a node never carries one — or,
// once attached, hands them straight to deliver.
type memEndpoint struct {
	net     *MemNetwork
	addr    string
	deliver func(pkt []byte, from string) // guarded by net.mu
	boxOnce sync.Once
	box     chan memPacket
	once    sync.Once
	done    chan struct{}
}

// Endpoint creates a new endpoint with a unique synthetic address.
func (n *MemNetwork) Endpoint() Transport {
	n.mu.Lock()
	defer n.mu.Unlock()
	addr := fmt.Sprintf("mem:%d", n.next)
	n.next++
	ep := &memEndpoint{
		net:  n,
		addr: addr,
		done: make(chan struct{}),
	}
	n.eps[addr] = ep
	return ep
}

func (e *memEndpoint) Addr() string { return e.addr }

// Clock is the clock of the endpoint's network, for clock.Of.
func (e *memEndpoint) Clock() clock.Clock {
	if e.net.vt != nil {
		return e.net.vt
	}
	return clock.Wall
}

func (e *memEndpoint) Send(addr string, pkt []byte) error {
	select {
	case <-e.done:
		return errClosed
	default:
	}
	data := append([]byte(nil), pkt...) // the caller reuses pkt
	if vt := e.net.vt; vt != nil {
		vt.AfterFunc(simLatency, func() { e.net.arrive(addr, data, e.addr) })
		return nil
	}
	e.net.arrive(addr, data, e.addr)
	return nil
}

// arrive hands data to whoever holds addr now: the attached node, else
// the mailbox.
func (n *MemNetwork) arrive(addr string, data []byte, from string) {
	n.mu.RLock()
	dst, ok := n.eps[addr]
	var deliver func([]byte, string)
	if ok {
		deliver = dst.deliver
	}
	n.mu.RUnlock()
	if !ok {
		return // unknown destination: dropped, like an unroutable datagram
	}
	if deliver != nil {
		deliver(data, from)
		return
	}
	select {
	case dst.mailbox() <- memPacket{data: data, from: from}:
	case <-dst.done:
	default: // full mailbox: dropped, like a full socket buffer
	}
}

func (e *memEndpoint) mailbox() chan memPacket {
	e.boxOnce.Do(func() { e.box = make(chan memPacket, memMailboxCap) })
	return e.box
}

// attach implements pushTransport. Packets that reached the mailbox
// before the attachment stay there for Recv.
func (e *memEndpoint) attach(deliver func(pkt []byte, from string)) {
	e.net.mu.Lock()
	e.deliver = deliver
	e.net.mu.Unlock()
}

func (e *memEndpoint) Recv() ([]byte, string, error) {
	box := e.mailbox()
	select {
	case p := <-box:
		return p.data, p.from, nil
	case <-e.done:
		// Drain anything already queued before reporting closure, so a
		// test that closes and re-reads sees deterministic behavior.
		select {
		case p := <-box:
			return p.data, p.from, nil
		default:
			return nil, "", errClosed
		}
	}
}

func (e *memEndpoint) Close() error {
	e.once.Do(func() {
		close(e.done)
		e.net.mu.Lock()
		delete(e.net.eps, e.addr)
		e.net.mu.Unlock()
	})
	return nil
}
