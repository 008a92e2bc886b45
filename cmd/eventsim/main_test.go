package main

import (
	"bytes"
	"compress/gzip"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"rcm"
	"rcm/eventsim"
)

func runCapture(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return sb.String()
}

var quick = []string{"-bits", "8", "-duration", "3", "-buckets", "3", "-rate", "400"}

func TestMassfailASCII(t *testing.T) {
	out := runCapture(t, append([]string{"-protocol", "chord", "-scenario", "massfail", "-fail", "0.3", "-mode", "event+analytic+sim"}, quick...)...)
	for _, want := range []string{
		"chord · massfail scenario, N=2^8",
		"q_eff=0.3",
		"success %",
		"static model at q_eff=0.3",
		"analytic (RCM)",
		"static simulation",
		"event steady state",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestChurnWithMaintenance(t *testing.T) {
	out := runCapture(t, append([]string{"-protocol", "kademlia", "-scenario", "churn", "-maintain", "-mode", "event"}, quick...)...)
	if !strings.Contains(out, "kademlia · churn scenario") {
		t.Errorf("missing title:\n%s", out)
	}
	// The maintenance column must show nonzero traffic somewhere.
	if !strings.Contains(out, "maint/node/s") {
		t.Errorf("missing maintenance column:\n%s", out)
	}
}

func TestCSVFormat(t *testing.T) {
	out := runCapture(t, append([]string{"-scenario", "zipf", "-zipf", "1.1", "-format", "csv", "-mode", "event"}, quick...)...)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header + 3 buckets
		t.Fatalf("got %d CSV lines, want 4:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "plan,kind,") || !strings.Contains(lines[0], "scenario") {
		t.Errorf("bad CSV header: %s", lines[0])
	}
	if !strings.Contains(lines[1], ",event,") || !strings.Contains(lines[1], "zipf") {
		t.Errorf("bad CSV row: %s", lines[1])
	}
}

func TestDeterministicOutput(t *testing.T) {
	args := append([]string{"-scenario", "flashcrowd", "-seed", "9", "-mode", "event"}, quick...)
	if a, b := runCapture(t, args...), runCapture(t, args...); a != b {
		t.Errorf("two identical invocations differ:\n%s\nvs\n%s", a, b)
	}
}

func TestLossyEmpiricalTransport(t *testing.T) {
	out := runCapture(t, append([]string{"-transport", "lossy:0.05:empirical:0.08", "-mode", "event"}, quick...)...)
	if !strings.Contains(out, "transport lossy:0.05:empirical:0.08") {
		t.Errorf("missing transport in title:\n%s", out)
	}
}

func TestErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"unknown scenario":    {"-scenario", "nope"},
		"unknown protocol":    {"-protocol", "nope"},
		"unknown transport":   {"-transport", "warp"},
		"unknown format":      {"-format", "pdf"},
		"mode without event":  {"-mode", "analytic+sim"},
		"unparseable mode":    {"-mode", "warp"},
		"zero kn":             {"-kn", "0"},
		"fail out of range":   {"-fail", "1.5"},
		"unknown lifetime":    {"-scenario", "heavytail", "-lifetime", "cauchy"},
		"infinite-mean alpha": {"-scenario", "heavytail", "-lifetime", "pareto:0.9"},
		"trace without file":  {"-scenario", "tracechurn"},
		"amplitude too big":   {"-scenario", "diurnal", "-diurnal-amplitude", "1.5"},
		"negative trace":      {"-trace", "-1"},
		"trace into csv":      {"-trace", "5", "-format", "csv"},
		"negative replicas":   {"-replicas", "-1"},
		"replicas over cap":   {"-replicas", "99"},
	} {
		var sb strings.Builder
		if err := run(append(args, quick...), &sb); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// "churn" named the removed Monte-Carlo engine's mode (churn is a
	// -scenario here); the unknown-name error lists the modes that exist.
	var sb strings.Builder
	err := run([]string{"-mode", "event+churn"}, &sb)
	if want := `unknown mode flag "churn" (have analytic, event,`; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("-mode event+churn: err = %v, want mention of %q", err, want)
	}
}

// TestReplicatedSingleHop: -protocol singlehop resolves through the
// registry grammar and -replicas k adds the repair column plus the k
// annotation to the table title.
func TestReplicatedSingleHop(t *testing.T) {
	out := runCapture(t, append([]string{
		"-protocol", "singlehop", "-scenario", "massfail", "-fail", "0.3",
		"-replicas", "3", "-mode", "event"}, quick...)...)
	for _, want := range []string{
		"singlehop · massfail scenario",
		"k=3",
		"repair/node/s",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}

// TestProfileFlags: -cpuprofile/-memprofile write non-empty pprof files
// alongside a normal run.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	out := runCapture(t, append([]string{
		"-scenario", "massfail", "-mode", "event",
		"-cpuprofile", cpu, "-memprofile", mem,
	}, quick...)...)
	if !strings.Contains(out, "massfail scenario") {
		t.Errorf("profiled run lost its output:\n%s", out)
	}
	for _, path := range []string{cpu, mem} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", path)
		}
	}
	// The heap profile must be a well-formed gzipped proto, not a
	// truncated write: main runs runtime.GC() first so the profile
	// reflects post-run live objects, then WriteHeapProfile emits one
	// complete gzip stream.
	raw, err := os.ReadFile(mem)
	if err != nil {
		t.Fatalf("read heap profile: %v", err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("heap profile is not gzip: %v", err)
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("heap profile gzip stream truncated: %v", err)
	}
	if len(body) == 0 {
		t.Error("heap profile decompressed to nothing")
	}
	// An unwritable profile path must error instead of silently profiling
	// nowhere.
	var sb strings.Builder
	if err := run(append([]string{"-cpuprofile", filepath.Join(dir, "no", "such", "dir.prof")}, quick...), &sb); err == nil {
		t.Error("unwritable -cpuprofile accepted")
	}
}

// TestTraceFlag: -trace N appends sampled per-lookup hop traces after
// the ascii table, and two invocations agree byte for byte.
func TestTraceFlag(t *testing.T) {
	args := append([]string{"-scenario", "massfail", "-fail", "0.3", "-seed", "5",
		"-mode", "event", "-trace", "50"}, quick...)
	out := runCapture(t, args...)
	for _, want := range []string{
		"hops p99", "lat p99", // percentile columns in the table
		"hop traces (every 50th lookup,",
		"lookup 0 src=", // the first sampled lookup's header line
		"start",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
	if again := runCapture(t, args...); again != out {
		t.Errorf("traced run is not deterministic:\n%s\nvs\n%s", out, again)
	}
}

// TestHeavytailScenario drives the lifetime-model path end to end through
// the CLI: a Pareto session distribution at churn's q_eff, with the
// static-model comparison columns alongside.
func TestHeavytailScenario(t *testing.T) {
	out := runCapture(t, append([]string{
		"-protocol", "chord", "-scenario", "heavytail",
		"-lifetime", "pareto:1.5", "-mean-online", "2", "-mean-offline", "0.5",
		"-mode", "event+analytic",
	}, quick...)...)
	for _, want := range []string{"chord · heavytail scenario", "q_eff=0.2", "static model at q_eff=0.2"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}

// TestDiurnalScenario checks the diurnal flags reach the engine.
func TestDiurnalScenario(t *testing.T) {
	out := runCapture(t, append([]string{
		"-scenario", "diurnal", "-diurnal-period", "1.5", "-diurnal-amplitude", "0.8",
		"-mode", "event",
	}, quick...)...)
	if !strings.Contains(out, "diurnal scenario") {
		t.Errorf("missing title:\n%s", out)
	}
}

// TestFaultFlag: -fault composes a fault plan over the -transport spec
// (visible in the title), stays deterministic, and rejects bad plans.
func TestFaultFlag(t *testing.T) {
	args := append([]string{"-protocol", "chord", "-fault", "partition:2@1-2", "-seed", "4", "-mode", "event"}, quick...)
	out := runCapture(t, args...)
	if !strings.Contains(out, "transport fault:partition:2@1-2/constant") {
		t.Errorf("title missing composed fault transport:\n%s", out)
	}
	if again := runCapture(t, args...); again != out {
		t.Errorf("faulted run not deterministic:\n%s\nvs\n%s", out, again)
	}
	if err := run(append([]string{"-fault", "bogus:1"}, quick...), &strings.Builder{}); err == nil {
		t.Error("bogus fault plan accepted")
	}
}

// leaves flattens a run description into path → value, descending into
// nested structs (Overlay, Params) and stopping at everything else — a
// Transport is one leaf however it is composed.
func leaves(prefix string, v reflect.Value, out map[string]any) {
	if v.Kind() != reflect.Struct {
		out[prefix] = v.Interface()
		return
	}
	for i := 0; i < v.NumField(); i++ {
		leaves(strings.TrimPrefix(prefix+"."+v.Type().Field(i).Name, "."), v.Field(i), out)
	}
}

// TestEveryKnobHasOneFlag is the guard against a fifth spelling of the
// eventsim knobs: the flags bind straight into eventsim.Config, so adding
// a field to Config or Params fails here until it is either bound by
// exactly one flag or listed, with its reason, as deliberately flagless.
// Each flag is set alone to a non-default value and the parsed Config is
// diffed, leaf by leaf, against the default command line's.
func TestEveryKnobHasOneFlag(t *testing.T) {
	// Fields no flag sets, and why.
	flagless := map[string]string{
		"Overlay.Seed": "derived from -seed by the engine and the runner",
		"Retransmits":  "figure hopdist runs with -1 through the Go API; the CLI keeps the default 2",
	}
	// Flags that describe the invocation, not the run.
	notRun := map[string]bool{"mode": true, "format": true, "cpuprofile": true, "memprofile": true}
	// String flags need a value their parser accepts; numbers and bools
	// get a generic non-default one.
	sample := map[string]string{
		"protocol": "kademlia", "scenario": "churn", "lifetime": "pareto:2", "downtime": "weibull:0.5",
		"transport": "lossy:0.5", "fault": "dup:0.5", "mode": "event", "format": "csv",
		"cpuprofile": "cpu.prof", "memprofile": "mem.prof",
	}

	base, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]any{}
	leaves("", reflect.ValueOf(base.cfg), want)

	boundBy := map[string][]string{}
	newFlags(new(options)).VisitAll(func(f *flag.Flag) {
		val, ok := sample[f.Name]
		if !ok {
			switch f.Value.(flag.Getter).Get().(type) {
			case bool:
				val = "true"
			case float64:
				val = "0.125"
			default:
				val = "3"
			}
		}
		o, err := parseFlags([]string{"-" + f.Name + "=" + val})
		if err != nil {
			t.Fatalf("-%s=%s: %v", f.Name, val, err)
		}
		got := map[string]any{}
		leaves("", reflect.ValueOf(o.cfg), got)
		var changed []string
		for path := range want {
			if !reflect.DeepEqual(got[path], want[path]) {
				changed = append(changed, path)
				boundBy[path] = append(boundBy[path], f.Name)
			}
		}
		wantN := 1
		if notRun[f.Name] {
			wantN = 0
		}
		if len(changed) != wantN {
			t.Errorf("-%s sets %d Config fields %v, want %d", f.Name, len(changed), changed, wantN)
		}
	})

	for path := range want {
		flags := boundBy[path]
		sort.Strings(flags)
		switch {
		case path == "Transport":
			// The one composed field: -fault wraps what -transport picked.
			if fmt.Sprint(flags) != "[fault transport]" {
				t.Errorf("Transport is bound by %v, want [fault transport]", flags)
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
			t.Errorf("flagless lists %s, which is not a Config field", path)
		}
	}
}

// TestDocumentedExamplesParse: each example command line in the package
// comment parses to exactly the run description written out here — the
// defaults the flags declare plus what the line says, nothing threaded by
// hand in between.
func TestDocumentedExamplesParse(t *testing.T) {
	defaults := eventsim.Config{
		Protocol:  "chord",
		Overlay:   eventsim.OverlayConfig{Bits: 12, SymphonyNear: 1, SymphonyShortcuts: 1},
		Scenario:  "massfail",
		Params:    eventsim.Params{Rate: 500, FailFraction: 0.3},
		Transport: eventsim.Constant{},
		Seed:      1,
		Duration:  10,
		Buckets:   10,
	}
	with := func(edit func(*eventsim.Config)) eventsim.Config {
		cfg := defaults
		edit(&cfg)
		return cfg
	}
	for line, want := range map[string]eventsim.Config{
		"-protocol chord -bits 12 -scenario massfail -fail 0.3": defaults,
		"-protocol kademlia -bits 10 -scenario churn -maintain": with(func(c *eventsim.Config) {
			c.Protocol, c.Overlay.Bits, c.Scenario, c.Maintain = "kademlia", 10, "churn", true
		}),
		"-protocol chord -scenario heavytail -lifetime pareto:1.5": with(func(c *eventsim.Config) {
			c.Scenario, c.Params.Lifetime = "heavytail", "pareto:1.5"
		}),
		"-protocol chord -scenario tracechurn -lifetime trace:sessions.txt": with(func(c *eventsim.Config) {
			c.Scenario, c.Params.Lifetime = "tracechurn", "trace:sessions.txt"
		}),
		"-protocol chord -scenario flashcrowd -transport lossy:0.05:empirical": with(func(c *eventsim.Config) {
			c.Scenario, c.Transport = "flashcrowd", eventsim.Lossy{Rate: 0.05, Inner: eventsim.Empirical{}}
		}),
		"-protocol symphony -scenario zipf -zipf 1.2 -format csv": with(func(c *eventsim.Config) {
			c.Protocol, c.Scenario, c.Params.ZipfS = "symphony", "zipf", 1.2
		}),
		"-bits 12 -scenario massfail -rate 20000 -duration 2 -mode event -cpuprofile cpu.prof -memprofile mem.prof": with(func(c *eventsim.Config) {
			c.Params.Rate, c.Duration = 20000, 2
		}),
		"-bits 8 -scenario massfail -fail 0.3 -duration 2 -trace 100": with(func(c *eventsim.Config) {
			c.Overlay.Bits, c.Duration, c.Trace = 8, 2, 100
		}),
	} {
		o, err := parseFlags(strings.Fields(line))
		if err != nil {
			t.Errorf("%s: %v", line, err)
			continue
		}
		if !reflect.DeepEqual(o.cfg, want) {
			t.Errorf("%s\n parsed %+v\n want   %+v", line, o.cfg, want)
		}
	}
}

// TestHelpNamesEveryProtocol: -h lists the registry's names instead of a
// list typed by hand.
func TestHelpNamesEveryProtocol(t *testing.T) {
	usage := newFlags(new(options)).Lookup("protocol").Usage
	for _, name := range rcm.Protocols() {
		if !strings.Contains(usage, name) {
			t.Errorf("-protocol help %q does not name %q", usage, name)
		}
	}
}
