package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"rcm"
	"rcm/node"
	"rcm/overlay"
)

// TestClusterInteractive scripts the in-process cluster mode through its
// stdin grammar: put, get through failover, kill, restart, status, quit.
func TestClusterInteractive(t *testing.T) {
	in := strings.NewReader(strings.Join([]string{
		"put color green",
		"get color",
		"kill 3",
		"status",
		"get color",
		"restart 3",
		"lookup 7",
		"bogus",
		"quit",
	}, "\n"))
	var out strings.Builder
	err := run([]string{"-cluster", "16", "-protocol", "chord", "-rto", "20ms"}, in, &out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	text := out.String()
	for _, want := range []string{
		"16-node in-process chord cluster up",
		`color = "green"`,
		"node 3 killed",
		"16 nodes, 1 down",
		"node 3 restarted",
		"lookup 7: ok",
		`unknown command "bogus"`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

// TestClusterRejectsNonPowerOfTwo: the population flag is validated.
func TestClusterRejectsNonPowerOfTwo(t *testing.T) {
	err := run([]string{"-cluster", "12"}, strings.NewReader(""), &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "power of two") {
		t.Errorf("cluster 12: %v", err)
	}
}

// TestClientAgainstLiveNodes boots a small UDP deployment through the
// node API (standing in for rcmd daemons) and drives the client mode's
// full op set against it.
func TestClientAgainstLiveNodes(t *testing.T) {
	const bits = 3
	proto, err := rcm.NewProtocol("chord", rcm.Config{Bits: bits, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := int(proto.Space().Size())
	addrs := make([]string, n)
	nodes := make([]*node.Node, n)
	transports := make([]node.Transport, n)
	for i := range nodes {
		tr, err := node.ListenUDP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		transports[i] = tr
		addrs[i] = tr.Addr()
	}
	for i := range nodes {
		nd, err := node.New(node.Config{
			Protocol:  proto,
			ID:        overlay.ID(i),
			Transport: transports[i],
			AddrOf:    func(id overlay.ID) string { return addrs[id] },
			RTO:       20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
		nd.Start()
		defer nd.Close()
	}

	base := []string{"-protocol", "chord", "-bits", fmt.Sprint(bits), "-connect", addrs[2], "-rto", "20ms"}
	var out strings.Builder
	if err := run(append(base, "-op", "put", "-key", "k", "-value", "v"), nil, &out); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := run(append(base, "-op", "get", "-key", "k"), nil, &out); err != nil {
		t.Fatalf("get: %v", err)
	}
	if err := run(append(base, "-op", "lookup", "-key", "5"), nil, &out); err != nil {
		t.Fatalf("lookup: %v", err)
	}
	text := out.String()
	for _, want := range []string{"put k: ok", `k = "v"`, "lookup 5: ok"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
	if err := run(append(base, "-op", "frob", "-key", "k"), nil, &out); err == nil || !strings.Contains(err.Error(), "unknown -op") {
		t.Errorf("frob: %v", err)
	}
	if err := run(append(base, "-op", "lookup", "-key", "pear"), nil, &out); err == nil || !strings.Contains(err.Error(), "numeric identifier") {
		t.Errorf("lookup pear: %v", err)
	}
}

// TestLoadPeers pins the peers-file grammar: comments, blank lines,
// malformed rows, out-of-range ids, an id mapped twice.
func TestLoadPeers(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	good := write("good.txt", "# deployment map\n0 127.0.0.1:4000\n\n1 127.0.0.1:4001\n")
	addrs, mapped, err := loadPeers(good, 4)
	if err != nil {
		t.Fatal(err)
	}
	if addrs[0] != "127.0.0.1:4000" || addrs[1] != "127.0.0.1:4001" || addrs[2] != "" || mapped != 2 {
		t.Errorf("addrs = %q, mapped = %d", addrs, mapped)
	}
	for name, content := range map[string]string{
		"range.txt": "9 127.0.0.1:4009",
		"row.txt":   "0 127.0.0.1:4000 extra",
	} {
		if _, _, err := loadPeers(write(name, content), 4); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, _, err := loadPeers(filepath.Join(dir, "absent.txt"), 4); err == nil {
		t.Error("missing file accepted")
	}
	// A later line must not silently replace an earlier one: the error
	// names both.
	dup := write("dup.txt", "1 127.0.0.1:4001\n# moved\n1 127.0.0.1:5001\n")
	if _, _, err := loadPeers(dup, 4); err == nil || !strings.Contains(err.Error(), "dup.txt:3: id 1 is already mapped on line 1") {
		t.Errorf("duplicate id: %v", err)
	}
}

// TestDaemonStartupLine: the start-up line says how much of the
// identifier space the peers file maps — an unmapped id is a legitimate
// absent node, but every send to it is dropped, so the operator is told.
func TestDaemonStartupLine(t *testing.T) {
	peers := filepath.Join(t.TempDir(), "peers.txt")
	if err := os.WriteFile(peers, []byte("0 127.0.0.1:4000\n5 127.0.0.1:4005\n9 127.0.0.1:4009\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	o, err := parseFlags([]string{"-protocol", "chord", "-bits", "4", "-id", "5", "-listen", "127.0.0.1:0", "-peers", peers})
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	stop, err := startDaemon(o, &out)
	if err != nil {
		t.Fatal(err)
	}
	stop()
	if got := out.String(); !strings.HasPrefix(got, "rcmd: node 5/16 of chord overlay up on 127.0.0.1:") ||
		!strings.HasSuffix(got, "(peers: 3 of 16 ids mapped)\n") {
		t.Errorf("start-up line %q", got)
	}
}

// TestReplicasRejectedInClientMode: a client operation reaches the
// key's root owner only, so -replicas with -op is refused (it used to be
// silently ignored, storing one copy in a k = 3 deployment), and -h says
// who issues replicated operations.
func TestReplicasRejectedInClientMode(t *testing.T) {
	err := run([]string{"-replicas", "3", "-op", "put", "-key", "k", "-value", "v", "-connect", "127.0.0.1:1"}, nil, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "replicated operations are issued by a daemon") {
		t.Errorf("-replicas 3 -op put: %v", err)
	}
	if _, err := parseFlags([]string{"-replicas", "1", "-op", "get", "-key", "k", "-connect", "x"}); err != nil {
		t.Errorf("-replicas 1 is single-owner and fine for a client: %v", err)
	}
	if usage := newFlags(new(options)).Lookup("replicas").Usage; !strings.Contains(usage, "Not for -op") {
		t.Errorf("-h does not say -replicas is not a client flag: %q", usage)
	}
}

// leaves flattens a config into path → value, one leaf per field.
func leaves(prefix string, v any, out map[string]any) {
	rv := reflect.ValueOf(v)
	for i := 0; i < rv.NumField(); i++ {
		out[prefix+"."+rv.Type().Field(i).Name] = rv.Field(i).Interface()
	}
}

// TestEveryKnobHasOneFlag: the flags bind into one cluster.Config, one
// node.Config template and one node.ClientConfig, so a field added to
// any of the three fails here until exactly one flag sets it or it is
// listed, with its reason, as deliberately flagless. Each flag is set
// alone to a non-default value and the parsed configs are diffed, field
// by field, against the default command line's.
func TestEveryKnobHasOneFlag(t *testing.T) {
	const engineKnob = "reachable through the Go API; the CLI keeps the default"
	flagless := map[string]string{
		"cluster.Transport":      "the interactive cluster is in-memory; a UDP deployment is daemons",
		"cluster.MaxHops":        engineKnob,
		"cluster.AdaptiveRTO":    engineKnob,
		"cluster.MaxInFlight":    engineKnob,
		"cluster.FaultHorizon":   "stall placement horizon; the cluster default (3600 s) outlasts a session",
		"cluster.FaultWallClock": "always true: nothing advances a schedule clock while you type",
		"node.Protocol":          "built by startDaemon from -protocol -bits -seed",
		"node.Transport":         "the socket startDaemon opens on -listen",
		"node.AddrOf":            "the directory startDaemon loads from -peers",
		"node.Store":             "a fresh store startDaemon parses from -store",
		"node.MaxHops":           engineKnob,
		"node.AdaptiveRTO":       engineKnob,
		"node.MaxInFlight":       engineKnob,
		"client.Bind":            "the default 127.0.0.1:0 suits a client on the daemons' host; elsewhere use the Go API",
		"client.Transport":       "in-process tests only",
		"client.MaxHops":         engineKnob,
	}
	// Fields two flags legitimately reach: -cluster N is the population,
	// from which the identifier length follows; -timeout caps -deadline.
	composed := map[string]string{
		"cluster.Bits":    "[bits cluster]",
		"client.Deadline": "[deadline timeout]",
	}
	sample := map[string]string{
		"protocol": "kademlia", "store": "lru:8", "fault": "dup:0.5", "cluster": "8",
		"rto": "7ms", "deadline": "3s", "timeout": "2s",
	}
	flatten := func(o options) map[string]any {
		out := map[string]any{}
		leaves("cluster", o.cluster, out)
		leaves("node", o.node, out)
		leaves("client", o.client, out)
		return out
	}
	base, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := flatten(base)

	boundBy := map[string][]string{}
	newFlags(new(options)).VisitAll(func(f *flag.Flag) {
		val, ok := sample[f.Name]
		if !ok {
			val = "3" // a number, an address, a key: every remaining flag takes it
		}
		o, err := parseFlags([]string{"-" + f.Name + "=" + val})
		if err != nil {
			t.Fatalf("-%s=%s: %v", f.Name, val, err)
		}
		for path, v := range flatten(o) {
			if !reflect.DeepEqual(v, want[path]) {
				boundBy[path] = append(boundBy[path], f.Name)
			}
		}
	})
	for path := range want {
		flags := boundBy[path]
		sort.Strings(flags)
		switch {
		case composed[path] != "":
			if fmt.Sprint(flags) != composed[path] {
				t.Errorf("%s is bound by %v, want %s", path, flags, composed[path])
			}
		case flagless[path] != "":
			if len(flags) != 0 {
				t.Errorf("%s is listed as flagless but is bound by %v", path, flags)
			}
		case len(flags) != 1:
			t.Errorf("%s is bound by %d flags %v, want exactly one (or list it as flagless, with the reason)", path, len(flags), flags)
		}
	}
	for path := range flagless {
		if _, ok := want[path]; !ok {
			t.Errorf("flagless lists %s, which is not a config field", path)
		}
	}
}

// TestModeValidation: flag combinations that select no mode, or a
// client op without its key, are refused with guidance.
func TestModeValidation(t *testing.T) {
	if err := run(nil, strings.NewReader(""), &strings.Builder{}); err == nil || !strings.Contains(err.Error(), "pick a mode") {
		t.Errorf("no mode: %v", err)
	}
	if err := run([]string{"-op", "get", "-connect", "x"}, nil, &strings.Builder{}); err == nil || !strings.Contains(err.Error(), "needs -key") {
		t.Errorf("missing key: %v", err)
	}
	if err := run([]string{"-op", "get", "-key", "k"}, nil, &strings.Builder{}); err == nil || !strings.Contains(err.Error(), "needs -connect") {
		t.Errorf("missing connect: %v", err)
	}
	if err := run([]string{"-listen", "127.0.0.1:0"}, nil, &strings.Builder{}); err == nil || !strings.Contains(err.Error(), "needs -peers") {
		t.Errorf("missing peers: %v", err)
	}
}

// TestClientTimeoutUnreachable: -timeout bounds the whole client
// operation against a deployment that never answers — the bound UDP
// socket below swallows packets, standing in for a dead daemon.
func TestClientTimeoutUnreachable(t *testing.T) {
	tr, err := node.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	start := time.Now()
	var out strings.Builder
	err = run([]string{
		"-protocol", "chord", "-bits", "3", "-connect", tr.Addr(),
		"-op", "lookup", "-key", "1", "-timeout", "200ms", "-rto", "20ms", "-retransmits", "1",
	}, nil, &out)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatalf("lookup against a silent endpoint succeeded:\n%s", out.String())
	}
	// The guard is -timeout plus a couple of RTOs, far under the 5s
	// -deadline default the flag overrides.
	if elapsed > 2*time.Second {
		t.Errorf("client took %v to give up, want well under the 5s default deadline", elapsed)
	}
}

// TestClusterFaultInteractive: -fault arms every node's transport in
// cluster mode and the faults command reports what fired.
func TestClusterFaultInteractive(t *testing.T) {
	in := strings.NewReader(strings.Join([]string{
		"lookup 5",
		"lookup 2",
		"faults",
		"quit",
	}, "\n"))
	var out strings.Builder
	err := run([]string{"-cluster", "8", "-protocol", "chord", "-rto", "20ms", "-fault", "dup:1.0"}, in, &out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	text := out.String()
	for _, want := range []string{
		"fault plan dup:1.0 armed",
		"lookup 5: ok",
		"dup=", // every request duplicated, so the counter is nonzero
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
	if err := run([]string{"-cluster", "8", "-fault", "bogus:1"}, strings.NewReader(""), &strings.Builder{}); err == nil {
		t.Error("bogus fault plan accepted")
	}
}
