// Package node runs registered DHT protocols as live networked nodes —
// the framework's fourth and highest-fidelity layer. Where eventsim
// simulates hop-by-hop forwarding with virtual timers, a Node does the
// same thing with real packets and real clocks: the identical
// ACK-transfers-ownership, RTO-retransmit, candidate-failover
// discipline, driven by the same Forwarder candidate enumeration, over
// an actual datagram transport.
//
// # Anatomy of a node
//
// A Node's routing state is touched only in its turns, and one
// goroutine at a time runs them, so handlers never lock. There is one
// way in: the inbox, a mutex-guarded queue of turns. An entry is either
// a raw datagram with its sender — decoded in its turn — or a posted
// function: a local request, Kill/Restart, a Metrics snapshot, a timer
// wake-up. A node has no goroutine of its own waiting on the inbox.
// Whoever puts an entry into an idle inbox claims the runner role and
// drains the queue on its own goroutine, a batch at a time, until it is
// empty; a put into a busy inbox only enqueues. The holder releases the
// role under the same mutex put takes, so an entry put as the role is
// released lands either in a batch the holder still takes or in an idle
// inbox its own producer claims: none is stranded. A goroutine that is
// not the node's own — a caller, a timer, another node's sender — runs
// at most 256 turns of one node before handing the rest of the queue to
// a fresh goroutine, so a busy node cannot capture it for long. At most
// 4096 datagrams wait in an inbox, the rest are dropped as a full socket
// buffer would drop them; posted functions are never dropped, and one
// the inbox accepted always runs, which is why no caller can hang across
// Close or Kill. Start opens the inbox and runs whatever was posted
// before it; Close waits for the final drop of every waiting request,
// run by whoever holds the role, and runs it itself when nobody does —
// on a node that was never started too.
//
// How datagrams reach the inbox depends on the transport. An in-memory
// endpoint attached to a node delivers from the sender's goroutine
// straight into the destination's inbox, and that goroutine runs the
// destination's turns when its inbox is idle: a mem node is no goroutine
// at all, and an uncontended lookup runs hop by hop — request,
// acknowledgement, response — on its caller's goroutine with no
// wake-up. The sender lends its encode buffer for the delivery only: a
// datagram that has to wait, because the inbox is busy or not started,
// is copied into the inbox, and one that reaches an idle inbox is
// decoded by a turn that runs before the sender's Send returns, with no
// copy. A UDP socket, or any other Transport, gets a pump goroutine
// whose body is Recv → inbox, the only place a system call has to
// block, and the pump runs the turns of what it receives: a UDP node is
// that one goroutine.
//
// What a node knows about requests sits in one request table, keyed by
// request id, with up to two roles per entry: a forward attempt awaiting
// its hop acknowledgement and a request this node originated awaiting
// its verdict. An entry is freed when its last role ends, so the table
// holds only the requests in flight. Forward attempts and waiting
// origins are records from per-node pools that recycle them, with their
// candidate slices, so a hop allocates no routing state in steady state.
// Beside the table sits the dedupe window: exactly the last 4096 request
// ids the node accepted, evicted in arrival order, each stored once in a
// ring and found through a 2-byte-a-slot index of ring positions. Ring
// and index grow as ids arrive, so a full window costs 48 KiB and a node
// that has accepted few requests little. The node's counters are plain
// fields of its turns' record; its four histograms are made by their
// first observation, so an idle node on a virtual network costs about
// 1.3 KiB of heap, its endpoint and store included.
//
// Timers are turn state too. Each node keeps one timer queue, an
// index-tracked 4-ary heap holding every per-hop retransmission timeout
// and every per-request response guard, each naming its pooled record by
// index; an acknowledgement, a response, Kill or Close removes its
// entries, so a concluded request leaves nothing armed. One clock timer per node stands for the whole queue: it
// posts a wake-up into the inbox when the earliest deadline is due, and
// is re-armed only when that deadline moves earlier — a wake-up that
// finds nothing due re-arms for what is.
//
// All time comes from one clock (rcm/node/internal/clock): the wall
// clock, or the virtual clock of a NewSimNetwork network. On the virtual
// network the inbox's role is never claimed. Every datagram delivery (a fixed
// millisecond after its send), posted function, timer wake-up and
// request held back by a fault plan is one entry of the network's single (time, arming
// order) queue, and a caller blocked in Lookup, Get, Put, Kill, Restart,
// Metrics or Close steps that queue, one entry at a time, until its own
// reply is in. The node code is the same; a timeout costs no wall-clock
// time and cannot fire spuriously, and a cluster that issues one request
// at a time (cluster.Config{Transport: "sim"}) replays deterministically.
//
// Requests travel in a compact binary wire format (versioned header;
// request/ack/response kinds; hop budgets and millisecond deadlines
// carried in every message), and the get/put key-value API stores values
// at each key's owner through a Store (in-memory map or bounded LRU).
//
// # Launching a cluster
//
// The quickest way to a running overlay is the in-process harness:
//
//	c, err := cluster.New(cluster.Config{Protocol: "chord", Bits: 6, Seed: 1})
//	if err != nil { ... }
//	defer c.Close()
//
// which boots one node per identifier (64 here) over in-memory
// datagrams — on virtual time with Transport: "sim", or over real UDP
// loopback sockets with Transport: "udp". For
// multi-process deployments, cmd/rcmd launches one daemon per process
// from a shared peers file; every daemon must share the protocol, bits
// and seed, because those three determine the routing tables.
//
// # Put, get, and watching failover
//
// Any node serves as an entry point; values land at the key's owner:
//
//	if res := c.Node(3).Put("color", []byte("green")); !res.OK() { ... }
//	res := c.Node(40).Get("color") // routes to the owner, hop by hop
//
// Kill a node on the route and the path heals itself: the upstream
// holder's RTO expires, retransmission is exhausted, and the request
// fails over to the next candidate the Forwarder enumerated — exactly
// eventsim's timeout semantics, now observable with tcpdump:
//
//	c.Kill(17)                     // crash: drops all in-flight state
//	res = c.Node(40).Get("color")  // still OK, one failover later
//	c.Restart(17)                  // back, store intact
//
// Out-of-band tools use Client, which injects requests at any entry
// node and receives the owner's response directly (Dial, then
// Get/Put/Lookup) — that is what `rcmd -op get` does. A Client reaches
// the key's root owner only: its Put writes one copy and its Get does not
// fail over, whatever Config.Replicas the deployment runs with.
// Replicated operations are issued by a node (Node.Put/Get, or the
// prompt of `rcmd -cluster`), which is why rcmd refuses -replicas
// together with -op.
//
// # Conformance with eventsim
//
// The point of the layer is cross-validation: eventsim.BuildSchedule
// hands out the program eventsim.Run executes — a scenario's lifecycle
// toggles and lookup workload, as data — cluster.Cluster.Replay executes
// that schedule against live nodes, both place replicas through
// replica.Table, and the conformance suite in node/cluster requires
// every scheduled lookup's outcome and hop count, and every fault tally,
// to be equal between the two executors. With the overlay seed pinned,
// both walk the same candidate lists over the same tables against the
// same failed set and flip the same fault coins, so they agree exactly —
// making eventsim a calibrated model of a deployable system rather than
// a fourth abstraction layer, and the live stack a tested implementation
// of the simulator's semantics.
//
// Faults are one step of that shared state machine, and rcm/fault owns
// it. A node given a bound fault plan (Config.Fault, read against
// Config.FaultClock) calls it where the engine does: each request it
// sends gets its fate from fault.Injector.Send in the forwarding step,
// and each request it receives passes fault.Injector.Receive, which
// drops it inside the node's stall episode, before its liveness is
// checked. Both tally into Metrics.Faults. The node only applies the
// fate: it turns a hold-back or delay spike into a delivery timer, sends
// a duplicate twice and mangles a corrupted request's wire bytes. The
// transport stays a plain datagram pipe.
package node
