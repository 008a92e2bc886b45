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
	fs := flag.NewFlagSet("rcmd", flag.ContinueOnError)
	var (
		protocol = fs.String("protocol", "chord", "overlay protocol: "+strings.Join(rcm.Protocols(), "|"))
		bits     = fs.Int("bits", 4, "identifier length d (N = 2^d)")
		seed     = fs.Uint64("seed", 1, "overlay construction seed (identical across a deployment)")
		storeSpc = fs.String("store", "mem", "store spec: "+strings.Join(node.StoreNames(), "|")+" (e.g. lru:4096)")

		id     = fs.Int("id", -1, "daemon: this node's identifier")
		listen = fs.String("listen", "", "daemon: UDP address to listen on")
		peers  = fs.String("peers", "", "daemon: peers file mapping id to addr, one \"id addr\" per line")

		connect = fs.String("connect", "", "client: address of any daemon")
		op      = fs.String("op", "", "client: operation get|put|lookup")
		key     = fs.String("key", "", "client: key (or identifier, for lookup)")
		value   = fs.String("value", "", "client: value for put")
		timeout = fs.Duration("timeout", 0, "client: bound the whole operation — an unreachable or dead deployment fails within this instead of the -deadline default (0: use -deadline)")

		clusterN  = fs.Int("cluster", 0, "interactive: boot an in-process cluster of N nodes (power of two)")
		faultSpec = fs.String("fault", "", `cluster: fault plan every node's transport runs, e.g. "partition:2@10-20,dup:0.1" (see rcm/fault; windows in seconds since boot)`)

		replicas = fs.Int("replicas", 0, "daemon/cluster: replicate each key across k owners with failover reads (0 or 1: single-owner; every node of a deployment must agree)")

		rto         = fs.Duration("rto", 50*time.Millisecond, "per-hop acknowledgement timeout")
		retransmits = fs.Int("retransmits", 2, "re-sends per candidate before failover (-1 disables)")
		deadline    = fs.Duration("deadline", 5*time.Second, "per-request time to live")

		metricsAddr = fs.String("metrics-addr", "", "daemon/cluster: serve metrics JSON, text and pprof on this HTTP address (e.g. 127.0.0.1:6060)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch {
	case *clusterN > 0:
		return runCluster(*clusterN, *protocol, *seed, *storeSpc, *replicas, *rto, *retransmits, *deadline, *faultSpec, *metricsAddr, in, out)
	case *op != "":
		if *timeout > 0 {
			// -timeout caps the whole operation: the request deadline
			// shrinks to it, so the client's response guard (deadline plus
			// one ack exchange) concludes promptly even against a target
			// that never answers.
			*deadline = *timeout
		}
		return runClient(*connect, *protocol, *bits, *op, *key, *value, *rto, *retransmits, *deadline, out)
	case *listen != "":
		return runDaemon(*protocol, *bits, *seed, *id, *listen, *peers, *storeSpc, *replicas, *rto, *retransmits, *deadline, *metricsAddr, out)
	default:
		return fmt.Errorf("pick a mode: -listen (daemon), -op (client) or -cluster N (interactive); see -h")
	}
}

// ---- Daemon mode -------------------------------------------------------

// loadPeers parses a peers file into an id-indexed address slice.
func loadPeers(path string, n int) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	addrs := make([]string, n)
	for lineno, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s:%d: want \"id addr\", got %q", path, lineno+1, line)
		}
		pid, err := strconv.Atoi(fields[0])
		if err != nil || pid < 0 || pid >= n {
			return nil, fmt.Errorf("%s:%d: id %q outside [0, %d)", path, lineno+1, fields[0], n)
		}
		addrs[pid] = fields[1]
	}
	return addrs, nil
}

func runDaemon(protocol string, bits int, seed uint64, id int, listen, peersPath, storeSpec string, replicas int, rto time.Duration, retransmits int, deadline time.Duration, metricsAddr string, out io.Writer) error {
	if peersPath == "" {
		return fmt.Errorf("daemon mode needs -peers")
	}
	proto, err := rcm.NewProtocol(protocol, rcm.Config{Bits: bits, Seed: seed})
	if err != nil {
		return err
	}
	n := int(proto.Space().Size())
	if id < 0 || id >= n {
		return fmt.Errorf("-id %d outside [0, %d)", id, n)
	}
	addrs, err := loadPeers(peersPath, n)
	if err != nil {
		return err
	}
	store, err := node.ParseStore(storeSpec)
	if err != nil {
		return err
	}
	tr, err := node.ListenUDP(listen)
	if err != nil {
		return err
	}
	nd, err := node.New(node.Config{
		Protocol:    proto,
		ID:          overlay.ID(id),
		Transport:   tr,
		AddrOf:      func(x overlay.ID) string { return addrs[x] },
		Store:       store,
		Replicas:    replicas,
		RTO:         rto,
		Retransmits: retransmits,
		Deadline:    deadline,
	})
	if err != nil {
		tr.Close()
		return err
	}
	nd.Start()
	fmt.Fprintf(out, "rcmd: node %d/%d of %s overlay up on %s\n", id, n, proto.Name(), nd.Addr())

	if metricsAddr != "" {
		ms, err := startMetricsServer(metricsAddr, func() obs.Snapshot {
			return obs.Default().Snapshot().Merge(nd.Metrics().Snapshot("node"))
		}, out)
		if err != nil {
			nd.Close()
			return err
		}
		defer ms.Close()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintf(out, "rcmd: node %d shutting down\n", id)
	nd.Close()
	return nil
}

// ---- Client mode -------------------------------------------------------

func runClient(connect, protocol string, bits int, op, key, value string, rto time.Duration, retransmits int, deadline time.Duration, out io.Writer) error {
	if connect == "" {
		return fmt.Errorf("client mode needs -connect")
	}
	if key == "" {
		return fmt.Errorf("-op %s needs -key", op)
	}
	// The client only routes by identifier space; the protocol flag is
	// accepted for symmetry with the daemon command lines.
	_ = protocol
	space, err := overlay.NewSpace(bits)
	if err != nil {
		return err
	}
	c, err := node.Dial(node.ClientConfig{
		Target:      connect,
		Space:       space,
		RTO:         rto,
		Retransmits: retransmits,
		Deadline:    deadline,
	})
	if err != nil {
		return err
	}
	defer c.Close()

	var res node.Result
	switch op {
	case "put":
		res = c.Put(key, []byte(value))
	case "get":
		res = c.Get(key)
	case "lookup":
		dst, err := strconv.ParseUint(key, 10, 64)
		if err != nil {
			return fmt.Errorf("-op lookup needs a numeric identifier as -key: %v", err)
		}
		res = c.Lookup(overlay.ID(dst))
	default:
		return fmt.Errorf("unknown -op %q (have get, put, lookup)", op)
	}
	return printResult(out, op, key, res)
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

func runCluster(n int, protocol string, seed uint64, storeSpec string, replicas int, rto time.Duration, retransmits int, deadline time.Duration, faultSpec string, metricsAddr string, in io.Reader, out io.Writer) error {
	bits := 0
	for 1<<bits < n {
		bits++
	}
	if 1<<bits != n {
		return fmt.Errorf("-cluster %d: population must be a power of two", n)
	}
	c, err := cluster.New(cluster.Config{
		Protocol:    protocol,
		Bits:        bits,
		Seed:        seed,
		Store:       storeSpec,
		Replicas:    replicas,
		RTO:         rto,
		Retransmits: retransmits,
		Deadline:    deadline,
		// Interactive clusters run the plan against wall time since
		// boot: windowed clauses fire while you type.
		Fault:          faultSpec,
		FaultSeed:      seed,
		FaultWallClock: true,
	})
	if err != nil {
		return err
	}
	defer c.Close()
	fmt.Fprintf(out, "rcmd: %d-node in-process %s cluster up\n", c.Len(), c.Protocol().Name())
	if faultSpec != "" {
		fmt.Fprintf(out, "rcmd: fault plan %s armed (windows in seconds since boot; see `stats` and `faults`)\n", faultSpec)
	}
	if metricsAddr != "" {
		ms, err := startMetricsServer(metricsAddr, func() obs.Snapshot {
			return obs.Default().Snapshot().Merge(c.Metrics().Snapshot("cluster"))
		}, out)
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
