// Command rcmd launches and drives live rcm DHT nodes — the deployable
// face of the framework's Layer 4. It has three modes:
//
// Daemon: run one node of an overlay over real UDP sockets. Every
// daemon of a deployment shares the -protocol/-bits/-seed triple (they
// determine the routing tables) and a peers file mapping identifiers to
// addresses:
//
//	rcmd -protocol chord -bits 4 -id 5 -listen 127.0.0.1:4005 \
//	  -peers peers.txt -store lru:4096
//
// where peers.txt holds one "id addr" pair per line (# comments):
//
//	0 127.0.0.1:4000
//	1 127.0.0.1:4001
//	...
//
// Client: issue one operation against a running deployment through any
// daemon's address:
//
//	rcmd -protocol chord -bits 4 -connect 127.0.0.1:4005 -op put -key color -value green
//	rcmd -protocol chord -bits 4 -connect 127.0.0.1:4000 -op get -key color
//	rcmd -protocol chord -bits 4 -connect 127.0.0.1:4000 -op lookup -key 9
//
// A client operation reaches the key's root owner only; replicated
// operations (-replicas k) are issued by the daemons themselves, so the
// flag is refused together with -op.
//
// Cluster: boot an in-process cluster of N nodes (N a power of two) and
// drive it interactively from stdin — the quickest way to watch
// candidate failover happen:
//
//	rcmd -cluster 64 -protocol kademlia
//	> put color green
//	> kill 12
//	> get color
//	> restart 12
//	> quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math/bits"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rcm"
	"rcm/node"
	"rcm/node/cluster"
	"rcm/obs"
	"rcm/overlay"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rcmd:", err)
		os.Exit(1)
	}
}

func run(args []string, in io.Reader, out io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	switch {
	case o.clusterN > 0:
		return runCluster(o, in, out)
	case o.op != "":
		return runClient(o, out)
	case o.listen != "":
		return runDaemon(o, out)
	default:
		return fmt.Errorf("pick a mode: -listen (daemon), -op (client) or -cluster N (interactive); see -h")
	}
}

// options is one parsed command line: the three run descriptions the
// flags bind into, one per mode, and what only the command line knows.
type options struct {
	// cluster describes the deployment — what every node of it must agree
	// on (-protocol -bits -seed -store -replicas -rto -retransmits
	// -deadline) plus -fault. Cluster mode boots it whole; the other two
	// modes run one member of it, so parseFlags copies the knobs they
	// share into node and client.
	cluster cluster.Config
	// node is the daemon's template; startDaemon adds what has to be
	// opened (Protocol, Transport, AddrOf, Store).
	node   node.Config
	client node.ClientConfig

	clusterN       int
	id             int
	listen, peers  string
	op, key, value string
	timeout        time.Duration
	metricsAddr    string
}

func newFlags(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("rcmd", flag.ContinueOnError)
	d := &o.cluster
	fs.StringVar(&d.Protocol, "protocol", "chord", "overlay protocol: "+strings.Join(rcm.Protocols(), "|"))
	fs.IntVar(&d.Bits, "bits", 4, "identifier length d (N = 2^d)")
	fs.Uint64Var(&d.Seed, "seed", 1, "overlay construction seed (identical across a deployment)")
	fs.StringVar(&d.Store, "store", "mem", "store spec: "+strings.Join(node.StoreNames(), "|")+" (e.g. lru:4096)")

	fs.IntVar(&o.id, "id", -1, "daemon: this node's identifier")
	fs.StringVar(&o.listen, "listen", "", "daemon: UDP address to listen on")
	fs.StringVar(&o.peers, "peers", "", "daemon: peers file mapping id to addr, one \"id addr\" per line")

	fs.StringVar(&o.client.Target, "connect", "", "client: address of any daemon")
	fs.StringVar(&o.op, "op", "", "client: operation get|put|lookup")
	fs.StringVar(&o.key, "key", "", "client: key (or identifier, for lookup)")
	fs.StringVar(&o.value, "value", "", "client: value for put")
	fs.DurationVar(&o.timeout, "timeout", 0, "client: bound the whole operation — an unreachable or dead deployment fails within this instead of the -deadline default (0: use -deadline)")

	fs.IntVar(&o.clusterN, "cluster", 0, "interactive: boot an in-process cluster of N nodes (power of two)")
	fs.StringVar(&d.Fault, "fault", "", `cluster: fault plan every node's transport runs, e.g. "partition:2@10-20,dup:0.1" (see rcm/fault; windows in seconds since boot)`)

	fs.IntVar(&d.Replicas, "replicas", 0, "daemon/cluster: replicate each key across k owners with failover reads (0 or 1: single-owner; every node of a deployment must agree). Not for -op: a client operation reaches the key's root owner only, replicated operations are issued by a daemon")

	fs.DurationVar(&d.RTO, "rto", 50*time.Millisecond, "per-hop acknowledgement timeout")
	fs.IntVar(&d.Retransmits, "retransmits", 2, "re-sends per candidate before failover (-1 disables)")
	fs.DurationVar(&d.Deadline, "deadline", 5*time.Second, "per-request time to live")

	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "daemon/cluster: serve metrics JSON, text and pprof on this HTTP address (e.g. 127.0.0.1:6060)")
	return fs
}

// parseFlags parses a command line and completes the three run
// descriptions from it: every field of cluster.Config, node.Config and
// node.ClientConfig is set here, from exactly one flag, or is listed
// with its reason in TestEveryKnobHasOneFlag.
func parseFlags(args []string) (options, error) {
	var o options
	if err := newFlags(&o).Parse(args); err != nil {
		return o, err
	}
	d := &o.cluster
	if o.id >= 0 {
		o.node.ID = overlay.ID(o.id)
	}
	o.node.Replicas, o.node.RTO, o.node.Retransmits, o.node.Deadline = d.Replicas, d.RTO, d.Retransmits, d.Deadline

	var err error
	if o.client.Space, err = overlay.NewSpace(d.Bits); err != nil {
		return o, err
	}
	o.client.RTO, o.client.Retransmits, o.client.Deadline = d.RTO, d.Retransmits, d.Deadline
	if o.timeout > 0 {
		// -timeout caps the whole operation: the request deadline
		// shrinks to it, so the client's response guard (deadline plus
		// one ack exchange) concludes promptly even against a target
		// that never answers.
		o.client.Deadline = o.timeout
	}
	if o.op != "" && d.Replicas > 1 {
		return o, fmt.Errorf("-replicas %d with -op %s: a client operation writes and reads the key's root owner only; replicated operations are issued by a daemon (-cluster, or Node.Put/Get in process)", d.Replicas, o.op)
	}

	// -cluster N gives the population; the identifier length follows.
	if o.clusterN > 0 {
		d.Bits = bits.Len(uint(o.clusterN)) - 1
		if 1<<d.Bits != o.clusterN {
			return o, fmt.Errorf("-cluster %d: population must be a power of two", o.clusterN)
		}
	}
	// Interactive clusters run the plan against wall time since boot:
	// windowed clauses fire while you type.
	d.FaultWallClock = true
	return o, nil
}

// ---- Daemon mode -------------------------------------------------------

// loadPeers parses a peers file into an id-indexed address slice and
// counts the ids it maps. An id the file never mentions keeps the empty
// address: sends to it are dropped, which is how a deployment models a
// node that is not there.
func loadPeers(path string, n int) (addrs []string, mapped int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	addrs = make([]string, n)
	lineOf := make([]int, n)
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, 0, fmt.Errorf("%s:%d: want \"id addr\", got %q", path, i+1, line)
		}
		pid, err := strconv.Atoi(fields[0])
		if err != nil || pid < 0 || pid >= n {
			return nil, 0, fmt.Errorf("%s:%d: id %q outside [0, %d)", path, i+1, fields[0], n)
		}
		if lineOf[pid] != 0 {
			return nil, 0, fmt.Errorf("%s:%d: id %d is already mapped on line %d", path, i+1, pid, lineOf[pid])
		}
		addrs[pid], lineOf[pid] = fields[1], i+1
		mapped++
	}
	return addrs, mapped, nil
}

// startDaemon opens what o.node leaves to run time — the overlay, the
// peers directory, the store, the socket — starts the node and the
// metrics listener, and prints the start-up lines. stop closes both.
func startDaemon(o options, out io.Writer) (stop func(), err error) {
	if o.peers == "" {
		return nil, fmt.Errorf("daemon mode needs -peers")
	}
	d, cfg := o.cluster, o.node
	cfg.Protocol, err = rcm.NewProtocol(d.Protocol, rcm.Config{Bits: d.Bits, Seed: d.Seed})
	if err != nil {
		return nil, err
	}
	n := int(cfg.Protocol.Space().Size())
	if o.id < 0 || o.id >= n {
		return nil, fmt.Errorf("-id %d outside [0, %d)", o.id, n)
	}
	addrs, mapped, err := loadPeers(o.peers, n)
	if err != nil {
		return nil, err
	}
	cfg.AddrOf = func(x overlay.ID) string { return addrs[x] }
	if cfg.Store, err = node.ParseStore(d.Store); err != nil {
		return nil, err
	}
	if cfg.Transport, err = node.ListenUDP(o.listen); err != nil {
		return nil, err
	}
	nd, err := node.New(cfg)
	if err != nil {
		cfg.Transport.Close()
		return nil, err
	}
	nd.Start()
	fmt.Fprintf(out, "rcmd: node %d/%d of %s overlay up on %s (peers: %d of %d ids mapped)\n",
		o.id, n, cfg.Protocol.Name(), nd.Addr(), mapped, n)

	stop = nd.Close
	if o.metricsAddr != "" {
		ms, err := startMetricsServer(o.metricsAddr, func() obs.Snapshot { return nd.Metrics().Snapshot("node") }, out)
		if err != nil {
			nd.Close()
			return nil, err
		}
		stop = func() { ms.Close(); nd.Close() }
	}
	return stop, nil
}

func runDaemon(o options, out io.Writer) error {
	stop, err := startDaemon(o, out)
	if err != nil {
		return err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintf(out, "rcmd: node %d shutting down\n", o.id)
	stop()
	return nil
}

// ---- Client mode -------------------------------------------------------

// runClient issues one operation. The client routes by identifier space
// alone; -protocol is accepted for symmetry with the daemon command
// lines.
func runClient(o options, out io.Writer) error {
	if o.client.Target == "" {
		return fmt.Errorf("client mode needs -connect")
	}
	if o.key == "" {
		return fmt.Errorf("-op %s needs -key", o.op)
	}
	c, err := node.Dial(o.client)
	if err != nil {
		return err
	}
	defer c.Close()

	var res node.Result
	switch o.op {
	case "put":
		res = c.Put(o.key, []byte(o.value))
	case "get":
		res = c.Get(o.key)
	case "lookup":
		dst, err := strconv.ParseUint(o.key, 10, 64)
		if err != nil {
			return fmt.Errorf("-op lookup needs a numeric identifier as -key: %v", err)
		}
		res = c.Lookup(overlay.ID(dst))
	default:
		return fmt.Errorf("unknown -op %q (have get, put, lookup)", o.op)
	}
	return printResult(out, o.op, o.key, res)
}

func printResult(out io.Writer, op, key string, res node.Result) error {
	if res.Err != nil {
		return res.Err
	}
	switch {
	case res.OK() && op == "get":
		fmt.Fprintf(out, "%s = %q (%d hops)\n", key, res.Value, res.Hops)
	case res.OK():
		fmt.Fprintf(out, "%s %s: ok (%d hops)\n", op, key, res.Hops)
	default:
		fmt.Fprintf(out, "%s %s: %s (%d hops)\n", op, key, res.Status, res.Hops)
	}
	return nil
}

// ---- Interactive cluster mode ------------------------------------------

func runCluster(o options, in io.Reader, out io.Writer) error {
	c, err := cluster.New(o.cluster)
	if err != nil {
		return err
	}
	defer c.Close()
	fmt.Fprintf(out, "rcmd: %d-node in-process %s cluster up\n", c.Len(), c.Protocol().Name())
	if o.cluster.Fault != "" {
		fmt.Fprintf(out, "rcmd: fault plan %s armed (windows in seconds since boot; see `stats` and `faults`)\n", o.cluster.Fault)
	}
	if o.metricsAddr != "" {
		ms, err := startMetricsServer(o.metricsAddr, func() obs.Snapshot { return c.Metrics().Snapshot("cluster") }, out)
		if err != nil {
			return err
		}
		defer ms.Close()
	}
	fmt.Fprintln(out, "commands: put <key> <value> | get <key> | lookup <dst> | kill <id> | restart <id> | status | stats | faults | quit")

	sc := bufio.NewScanner(in)
	for {
		fmt.Fprint(out, "> ")
		if !sc.Scan() {
			fmt.Fprintln(out)
			return sc.Err()
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if err := clusterCommand(c, fields, out); err != nil {
			if err == errQuit {
				return nil
			}
			fmt.Fprintln(out, "error:", err)
		}
	}
}

var errQuit = fmt.Errorf("quit")

// entry picks a live node to issue an operation from.
func entry(c *cluster.Cluster) (*node.Node, error) {
	for i := 0; i < c.Len(); i++ {
		if !c.Node(i).Down() {
			return c.Node(i), nil
		}
	}
	return nil, fmt.Errorf("every node is down")
}

func clusterCommand(c *cluster.Cluster, fields []string, out io.Writer) error {
	parseID := func(s string) (int, error) {
		id, err := strconv.Atoi(s)
		if err != nil || id < 0 || id >= c.Len() {
			return 0, fmt.Errorf("id %q outside [0, %d)", s, c.Len())
		}
		return id, nil
	}
	switch cmd := fields[0]; cmd {
	case "quit", "exit":
		return errQuit
	case "status":
		down := 0
		for i := 0; i < c.Len(); i++ {
			if c.Node(i).Down() {
				down++
			}
		}
		fmt.Fprintf(out, "%d nodes, %d down\n", c.Len(), down)
		return nil
	case "stats":
		// Cluster-wide instrumentation: merged counters plus hop and
		// latency histogram summaries, in the same shape the
		// -metrics-addr endpoint serves.
		return c.Metrics().Snapshot("cluster").WriteText(out)
	case "faults":
		// Faults injected so far, by kind ("none" without a -fault plan).
		fmt.Fprintln(out, c.FaultCounts())
		return nil
	case "kill", "restart":
		if len(fields) != 2 {
			return fmt.Errorf("usage: %s <id>", cmd)
		}
		id, err := parseID(fields[1])
		if err != nil {
			return err
		}
		if cmd == "kill" {
			c.Kill(id)
		} else {
			c.Restart(id)
		}
		fmt.Fprintf(out, "node %d %sed\n", id, cmd)
		return nil
	case "put", "get", "lookup":
		nd, err := entry(c)
		if err != nil {
			return err
		}
		var res node.Result
		key := ""
		switch {
		case cmd == "put" && len(fields) == 3:
			key = fields[1]
			res = nd.Put(key, []byte(fields[2]))
		case cmd == "get" && len(fields) == 2:
			key = fields[1]
			res = nd.Get(key)
		case cmd == "lookup" && len(fields) == 2:
			id, err := parseID(fields[1])
			if err != nil {
				return err
			}
			key = fields[1]
			res = nd.Lookup(overlay.ID(id))
		default:
			return fmt.Errorf("usage: put <key> <value> | get <key> | lookup <dst>")
		}
		return printResult(out, cmd, key, res)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}
