package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"
)

// smokeRecords runs every workload once at the smoke scale, untraced
// and traced, and caches the records for the tests below.
var smokeRecords = map[string][2]record{}

func smoke(t *testing.T) map[string][2]record {
	t.Helper()
	if len(smokeRecords) > 0 {
		return smokeRecords
	}
	for _, w := range workloadDecls {
		var recs [2]record
		for i, trace := range []bool{false, true} {
			rec, err := run(options{workload: w.Name, seed: 7, scale: "smoke", trace: trace})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			recs[i] = rec
		}
		smokeRecords[w.Name] = recs
	}
	return smokeRecords
}

func TestSmoke(t *testing.T) {
	for name, recs := range smoke(t) {
		for _, rec := range recs {
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d %v",
					name, rec.Trace, rec.Correct, rec.Attempted, rec.Failed, rec.Failures)
			}
		}
		plain, traced := recs[0], recs[1]
		if name != "live_mem_lookup" && name != "live_udp_kv" && plain.Digest != traced.Digest {
			t.Errorf("%s: output digest %s untraced, %s traced", name, plain.Digest, traced.Digest)
		}
		for m, v := range plain.Metrics {
			if v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, m, v.Value)
			}
		}
	}
}

// On a healthy cluster these read 0, and the smoke scale has too few
// operations for the far percentiles.
var mayBeZero = []string{
	"node.timeouts_per_kop", "node.retries_per_kop", "node.shed_expired",
	"cluster.lat_p99_us", "cluster.lat_p999_us", "bench.trace_overhead_pct",
}

// Every name the program prints is declared and every declared name is
// printed; a per-layer metric is non-zero exactly on the workloads its
// declaration says it is measured on.
func TestPrintedMetricsMatchDeclarations(t *testing.T) {
	for name, recs := range smoke(t) {
		if len(recs[0].Metrics) != len(endToEndDecls) {
			t.Errorf("%s: %d end-to-end metrics printed, %d declared", name, len(recs[0].Metrics), len(endToEndDecls))
		}
		for _, d := range endToEndDecls {
			if m, ok := recs[0].Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: end-to-end metric %s: printed %v %+v", name, d.Name, ok, m)
			}
		}
		if len(recs[1].Metrics) != len(layerDecls) {
			t.Errorf("%s: %d per-layer metrics printed, %d declared", name, len(recs[1].Metrics), len(layerDecls))
		}
		for _, d := range layerDecls {
			m, ok := recs[1].Metrics[d.Name]
			if !ok || m.Unit != d.Unit {
				t.Errorf("%s: per-layer metric %s: printed %v %+v", name, d.Name, ok, m)
				continue
			}
			on := slices.Contains(d.On, name)
			if on && m.Value == 0 && !slices.Contains(mayBeZero, d.Name) {
				t.Errorf("%s: %s is declared to be measured here but reads 0", name, d.Name)
			}
			if !on && m.Value != 0 {
				t.Errorf("%s: %s = %v but its declaration does not list this workload", name, d.Name, m.Value)
			}
		}
	}
}

func TestClosedLoopAccounting(t *testing.T) {
	sz := scales["smoke"]
	inst, err := setupLiveMem(3, sz)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	l := inst.(*live)
	d := l.drive(sz.memOps, true)
	want := sz.memOps / clients() * clients()
	if d.ops != want || len(d.starts) != want || len(d.ends) != want || d.failed != 0 {
		t.Fatalf("drive: ops=%d starts=%d ends=%d failed=%d, want %d operations and no failure",
			d.ops, len(d.starts), len(d.ends), d.failed, want)
	}
	for i := range d.starts {
		if d.ends[i].Before(d.starts[i]) {
			t.Fatalf("operation %d ends before it starts", i)
		}
	}
	if again := l.drive(sz.memOps, false); again.hops != d.hops || len(again.starts) != 0 {
		t.Errorf("second drive: hops %d vs %d, %d timings; the sequence must repeat and untimed drives keep no timings",
			again.hops, d.hops, len(again.starts))
	}
}

func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkSpec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(spec())
	have, _ := json.Marshal(got)
	if string(want) != string(have) {
		t.Errorf("BENCHMARK.json differs from the declarations; regenerate it with\n  bash benchmark/run.sh -spec > BENCHMARK.json")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(got.Workloads) != 7 || len(got.EndToEnd) > 16 || len(got.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics", len(got.Workloads), len(got.EndToEnd), len(got.PerLayer))
	}
	workloads := map[string]bool{}
	for _, w := range got.Workloads {
		use(w.Name)
		workloads[w.Name] = true
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
		if _, ok := setups[w.Name]; !ok {
			t.Errorf("workload %s has no set-up", w.Name)
		}
	}
	endToEnd := map[string]bool{}
	for _, m := range got.EndToEnd {
		use(m.Name)
		endToEnd[m.Name] = true
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v", m)
		}
	}
	if !endToEnd["setup_s"] {
		t.Error("no setup_s")
	}
	for _, d := range layerDecls {
		use(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || d.Layer == "" {
			t.Errorf("per-layer metric %+v", d)
		}
		if !endToEnd[d.Moves] {
			t.Errorf("per-layer metric %s moves %q, which is no end-to-end metric", d.Name, d.Moves)
		}
		if len(d.On) == 0 {
			t.Errorf("per-layer metric %s is measured on no workload", d.Name)
		}
		for _, w := range d.On {
			if !workloads[w] {
				t.Errorf("per-layer metric %s names unknown workload %q", d.Name, w)
			}
		}
	}
}
