package node

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rcm/fault"
	"rcm/node/internal/clock"
)

// FaultConfig binds an rcm/fault plan to a live transport. The wrapper
// runs the same schedule the event simulator does: partition groups and
// stall episodes are pure functions of (Seed, Horizon, node id), so a
// cluster whose wrappers share Seed and Horizon reproduces eventsim's
// fault schedule exactly — the property the conformance suite pins.
type FaultConfig struct {
	// Plan is the fault schedule; it must be valid and non-empty.
	Plan fault.Plan
	// Seed fixes the plan's derived choices (partition cut, stall
	// episodes, fault.Injector.Coins). Use the simulation seed for conformance.
	Seed uint64
	// Horizon is the plan's time horizon in seconds — stall episodes are
	// placed inside [0, Horizon). Use the simulated duration for
	// conformance (default 3600).
	Horizon float64
	// Self is this endpoint's overlay identifier, used for partition
	// grouping of outbound requests and stall filtering of inbound ones.
	Self uint64
	// IDOf resolves a transport address to its overlay identifier —
	// the inverse of Config.AddrOf, needed to group the receiver of an
	// outbound request and to key its coins (as 0 without IDOf).
	// Required when the plan has a partition clause.
	IDOf func(addr string) (uint64, bool)
	// Now is the plan clock in seconds; windowed clauses (partition,
	// delayspike) and stall episodes are evaluated against it. A cluster
	// replaying a simulated schedule supplies its schedule clock here.
	// Defaults to the time on the inner transport's clock since the
	// wrapper was created: wall time, or a virtual network's time.
	Now func() float64
}

// faultLatency is the one-way latency bound the wrapper assumes of the
// underlying network: the hold-back budget reordering and delay spikes
// are scaled by, mirroring eventsim's use of the inner transport's
// MaxLatency. The in-memory (or loopback) substrate delivers in
// microseconds, the simulated one in a millisecond; a small budget keeps
// reordering well under any sane RTO.
const faultLatency = 2 * time.Millisecond

// FaultTransport wraps a Transport with deterministic fault injection.
// Like the simulator — and for the same reason — every clause faults
// requests only: acks and responses pass untouched, so the wrapper's
// damage is exactly what the engine models. Outbound requests may be
// blackholed (partition), mangled (corrupt — the receiver's wire codec
// rejects them), duplicated, held back (reorder, delayspike); inbound
// requests are dropped while this node is inside its stall episode.
// Injected faults are tallied per kind, by fault.Counts' rule (Counts).
type FaultTransport struct {
	inner Transport
	inj   *fault.Injector
	cfg   FaultConfig
	clk   clock.Clock // the inner transport's: times hold-backs and the default plan clock
	start time.Duration

	done chan struct{}
	once sync.Once

	partitionDrops, dups, reorders, corrupts, stallDrops atomic.Uint64
}

// WrapFault wraps inner with the configured fault plan.
func WrapFault(inner Transport, fc FaultConfig) (*FaultTransport, error) {
	if inner == nil {
		return nil, fmt.Errorf("node: WrapFault: nil inner transport")
	}
	if fc.Plan.Empty() {
		return nil, fmt.Errorf("node: WrapFault: empty fault plan")
	}
	if err := fc.Plan.Validate(); err != nil {
		return nil, fmt.Errorf("node: WrapFault: %w", err)
	}
	if fc.Plan.Partition != nil && fc.IDOf == nil {
		return nil, fmt.Errorf("node: WrapFault: a partition clause needs IDOf to group receivers")
	}
	if fc.Horizon <= 0 {
		fc.Horizon = 3600
	}
	clk := clockOf(inner)
	ft := &FaultTransport{
		inner: inner,
		inj:   fc.Plan.Bind(fc.Seed, fc.Horizon),
		cfg:   fc,
		clk:   clk,
		start: clk.Now(),
		done:  make(chan struct{}),
	}
	return ft, nil
}

func (ft *FaultTransport) now() float64 {
	if ft.cfg.Now != nil {
		return ft.cfg.Now()
	}
	return (ft.clk.Now() - ft.start).Seconds()
}

// Counts returns the faults injected so far, by kind.
func (ft *FaultTransport) Counts() fault.Counts {
	return fault.Counts{
		PartitionDrops: ft.partitionDrops.Load(),
		Dups:           ft.dups.Load(),
		Reorders:       ft.reorders.Load(),
		Corrupts:       ft.corrupts.Load(),
		StallDrops:     ft.stallDrops.Load(),
	}
}

// Addr implements Transport.
func (ft *FaultTransport) Addr() string { return ft.inner.Addr() }

// Close implements Transport; held (reordered/delayed) sends become
// inert.
func (ft *FaultTransport) Close() error {
	ft.once.Do(func() { close(ft.done) })
	return ft.inner.Close()
}

// isReq reports whether pkt is an intact request datagram — the only
// kind the plan applies to (a corrupted one is the codec's to reject).
func isReq(pkt []byte) bool {
	return len(pkt) >= headerLen && binary.BigEndian.Uint16(pkt) == wireMagic &&
		pkt[2] == wireVersion && pkt[3] == msgReq
}

// Send implements Transport, applying the plan to request packets by
// fault.Counts' rule. The coins are eventsim's for the same transmission:
// the header gives hops, owner (Dst) and try (status byte), and a replay
// pins the plan clock to the lookup's scheduled instant.
func (ft *FaultTransport) Send(addr string, pkt []byte) error {
	if !isReq(pkt) {
		return ft.inner.Send(addr, pkt)
	}
	t := ft.now()
	to, known := uint64(0), false
	if ft.cfg.IDOf != nil {
		to, known = ft.cfg.IDOf(addr)
	}
	if known && ft.inj.CrossPartition(ft.cfg.Self, to, t) {
		ft.partitionDrops.Add(1)
		return nil
	}
	c := ft.inj.Coins(fault.Hop{
		T: t, From: ft.cfg.Self, To: to,
		Owner: binary.BigEndian.Uint64(pkt[18:26]),
		Hops:  binary.BigEndian.Uint16(pkt[6:8]),
		Try:   pkt[5],
	})
	var hold time.Duration
	if c.Reorder {
		hold = time.Duration(c.Hold * float64(faultLatency))
		if !c.Corrupt {
			ft.reorders.Add(1)
		}
	}
	if f := ft.inj.DelayFactor(t); f > 1 {
		hold += time.Duration((f - 1) * float64(faultLatency))
	}
	out := pkt
	if c.Corrupt {
		// Mangle a copy (the caller reuses its buffer) in the magic or
		// version bytes, which the receiving codec rejects
		// unconditionally — never the kind byte, whose bit-flips could
		// alias another valid kind.
		out = append([]byte(nil), pkt...)
		out[c.Byte] ^= c.Mask
		ft.corrupts.Add(1)
	}
	if c.Dup {
		// The duplicate is a faithful copy: the receiver's dedupe window
		// absorbs it (or the corrupt primary's loss is papered over).
		ft.dups.Add(1)
		ft.sendHeld(addr, append([]byte(nil), pkt...), hold)
	}
	if hold > 0 {
		if !c.Corrupt {
			out = append([]byte(nil), pkt...) // held past the caller's buffer reuse
		}
		ft.sendHeld(addr, out, hold)
		return nil
	}
	return ft.inner.Send(addr, out)
}

// sendHeld transmits pkt (a private copy) after delay, dropping it if
// the transport closes first.
func (ft *FaultTransport) sendHeld(addr string, pkt []byte, delay time.Duration) {
	if delay <= 0 {
		ft.inner.Send(addr, pkt)
		return
	}
	ft.clk.AfterFunc(delay, func() {
		select {
		case <-ft.done:
		default:
			ft.inner.Send(addr, pkt)
		}
	})
}

// stalled is the inbound half of the plan, shared by both receive
// paths: an intact request arriving while this node is inside its stall
// episode is dropped (and counted) — unresponsive, exactly the engine's
// model (no ack, so the sender's RTO machinery takes over). The filter
// sits below the node, so it counts whether or not the node is killed,
// as fault.Counts' rule says.
func (ft *FaultTransport) stalled(pkt []byte) bool {
	if isReq(pkt) && ft.inj.Stalled(ft.cfg.Self, ft.now()) {
		ft.stallDrops.Add(1)
		return true
	}
	return false
}

// Recv implements Transport, dropping inbound requests while stalled.
func (ft *FaultTransport) Recv() ([]byte, string, error) {
	for {
		pkt, from, err := ft.inner.Recv()
		if err != nil || !ft.stalled(pkt) {
			return pkt, from, err
		}
	}
}

// attach implements pushTransport when the inner transport does, passing
// pushed datagrams through the same stall filter as Recv.
func (ft *FaultTransport) attach(deliver func(pkt []byte, from string)) bool {
	p, ok := ft.inner.(pushTransport)
	return ok && p.attach(func(pkt []byte, from string) {
		if !ft.stalled(pkt) {
			deliver(pkt, from)
		}
	})
}
