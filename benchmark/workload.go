package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rcm/internal/figures"
)

// sizes fixes how much work one set-up and one repetition do. "full" is
// what the benchmark measures; "smoke" runs the same code in a few
// seconds for the tests.
type sizes struct {
	setups   int // set-ups per run; setup_s is their median
	minReps  int // repetitions measured even when --seconds is already spent
	refSteps int // loads per chase of the reference kernel

	analyticBits   []int
	analyticPasses int // passes per repetition
	analyticWarm   int // discarded passes in set-up

	simBits, simWarmBits int
	simPairs, simTrials  int

	figures     figures.Options
	figuresWarm figures.Options // the discarded 6a of set-up

	churnBits         int
	churnRate         float64
	churnDuration     float64
	churnWarmDuration float64

	largeBits     int
	largeRate     float64
	largeDuration float64
	largeWarmRate float64

	liveBits         int
	memOps, memWarm  int
	udpOps, udpWarm  int
	udpKeys          int
	probeOps         int           // operations of a live probe
	probeFor         time.Duration // how long a timed loop probe runs
	probeBits        int           // overlay size of the dht/sim probes
	percolationBits  int
	massfailDuration float64
}

var scales = map[string]sizes{
	"full": {
		setups: 3, minReps: 3, refSteps: refSteps,
		analyticBits:   []int{10, 14, 17, 20, 24, 27, 30, 34, 40, 50, 70, 100, 140, 200},
		analyticPasses: 50, analyticWarm: 20,
		simBits: 16, simWarmBits: 12, simPairs: 10000, simTrials: 2,
		figures:     figures.Options{Bits: 10, Pairs: 2000, Trials: 1},
		figuresWarm: figures.Options{Bits: 12},
		churnBits:   12, churnRate: 20000, churnDuration: 20, churnWarmDuration: 5,
		largeBits: 20, largeRate: 200000, largeDuration: 1, largeWarmRate: 20000,
		liveBits: 7, memOps: 60000, memWarm: 30000, udpOps: 8000, udpWarm: 3000, udpKeys: 4096,
		probeOps: 2000, probeFor: 40 * time.Millisecond, probeBits: 16, percolationBits: 14,
		massfailDuration: 2,
	},
	"smoke": {
		setups: 2, minReps: 2, refSteps: 1 << 12,
		analyticBits:   []int{10, 14, 100},
		analyticPasses: 2, analyticWarm: 1,
		simBits: 12, simWarmBits: 8, simPairs: 4000, simTrials: 4,
		figures:     figures.Options{Bits: 8, Pairs: 300, Trials: 1},
		figuresWarm: figures.Options{Bits: 8, Pairs: 300, Trials: 1},
		churnBits:   8, churnRate: 2000, churnDuration: 2, churnWarmDuration: 0.5,
		largeBits: 12, largeRate: 5000, largeDuration: 0.5, largeWarmRate: 1000,
		liveBits: 5, memOps: 400, memWarm: 100, udpOps: 200, udpWarm: 50, udpKeys: 64,
		probeOps: 100, probeFor: time.Millisecond, probeBits: 10, percolationBits: 8,
		massfailDuration: 0.5,
	},
}

// repStats is what one repetition reports.
type repStats struct {
	wall, cpu float64 // seconds of the timed section
	// parts splits wall into the calls that make up the repetition
	// (passes, figures), the same ones every repetition; nil when the
	// repetition is one call.
	parts []float64
	rss   float64 // peak resident set of the repetition, MiB
	work  float64 // units of work done (rows, routes, figures, events, ops)
	// attempted and failed count the operations (live) or output
	// checks (elsewhere) of this repetition.
	attempted, failed int
	// digest summarises the repetition's output; where the layer is
	// deterministic it must be equal across repetitions.
	digest uint64
	// layer holds the per-layer numbers of this repetition; the run
	// reports their medians over the traced repetitions.
	layer map[string]float64
}

// instance is one workload after set-up.
type instance interface {
	// rep runs one repetition; tr is nil on an untraced one.
	rep(tr *tracer, parent int32, i int) (repStats, error)
	// verify checks outputs across repetitions and returns how many
	// checks it made and one message per failed check.
	verify(reps []repStats) (checks int, failures []string)
	// probes measures single layers on the workload's own inputs.
	probes(tr *tracer, parent int32) (map[string]float64, error)
	close()
}

// setupFunc builds an instance; everything it does, warm-up included,
// is set-up time.
type setupFunc func(seed uint64, sz sizes) (instance, error)

var setups = map[string]setupFunc{
	"analytic_grid":   setupAnalytic,
	"static_sim":      setupStaticSim,
	"figures_all":     setupFigures,
	"eventsim_churn":  setupChurn,
	"eventsim_large":  setupLarge,
	"live_mem_lookup": setupLiveMem,
	"live_udp_kv":     setupLiveUDP,
}

// options selects one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scale    string
	traceOut string // write the spans here (traced runs)
}

// record is the full account of one run; the last line of standard
// output is its contract subset (correct, attempted, failed, metrics).
type record struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     bool              `json:"trace"`
	Reps      int               `json:"reps"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Digest    string            `json:"digest"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Info holds the raw seconds behind wall_rel on an untraced run;
	// printed, recorded, but no part of the result object.
	Info map[string]metric `json:"info,omitempty"`
}

// run sets the workload up, measures repetitions for o.seconds, checks
// the outputs and, on a traced run, probes the layers.
func run(o options) (record, error) {
	setup, ok := setups[o.workload]
	if !ok {
		return record{}, fmt.Errorf("unknown workload %q", o.workload)
	}
	sz, ok := scales[o.scale]
	if !ok {
		return record{}, fmt.Errorf("unknown scale %q", o.scale)
	}

	var inst instance
	var setupS []float64
	for i := 0; i < sz.setups; i++ {
		if inst != nil {
			// Drop the previous instance first, so peak RSS is that of
			// one workload and not of its set-up repeated.
			inst.close()
			inst = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if inst, err = setup(o.seed, sz); err != nil {
			return record{}, fmt.Errorf("%s: set-up: %w", o.workload, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer inst.close()

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	root := tr.begin(-1, o.workload, -1)
	var reps, tracedReps, plainReps []repStats
	var refs []float64 // the reference kernel's times: before each repetition and after the last
	sampleRef := func() error {
		ref, err := refSeconds(sz.refSteps)
		refs = append(refs, ref...)
		return err
	}
	start := time.Now()
	minReps := sz.minReps
	if o.trace {
		minReps++ // two traced and two untraced repetitions at the least
	}
	for i := 0; i < minReps || time.Since(start).Seconds() < o.seconds; i++ {
		// A traced run alternates traced and untraced repetitions, so
		// the tracing overhead is measured inside one process.
		repTr := tr
		if i%2 == 1 {
			repTr = nil
		}
		// Every repetition starts from a collected heap, so that none
		// pays for the garbage of the one before.
		runtime.GC()
		if err := sampleRef(); err != nil {
			return record{}, err
		}
		resetPeakRSS()
		rs, err := inst.rep(repTr, root, i)
		rs.rss = peakRSSMiB()
		if err != nil {
			return record{}, fmt.Errorf("%s: repetition %d: %w", o.workload, i, err)
		}
		reps = append(reps, rs)
		if repTr != nil {
			tracedReps = append(tracedReps, rs)
		} else {
			plainReps = append(plainReps, rs)
		}
	}
	tr.end(root)
	if err := sampleRef(); err != nil {
		return record{}, err
	}

	rec := record{Workload: o.workload, Seed: o.seed, Trace: o.trace, Reps: len(reps)}
	checks, failures := inst.verify(reps)
	rec.Attempted, rec.Failed = checks, len(failures)
	for _, rs := range reps {
		rec.Attempted += rs.attempted
		rec.Failed += rs.failed
	}
	if fails := rec.Failed - len(failures); fails > 0 {
		failures = append(failures, fmt.Sprintf("%d operations or per-repetition checks failed", fails))
	}
	rec.Failures = failures
	rec.Correct = rec.Failed == 0
	rec.Digest = strconv.FormatUint(reps[0].digest, 16)

	wall := repetitionSeconds(reps)
	raw := map[string]float64{"wall_s": wall, "work_per_s": reps[0].work / wall, "ref_s": median(refs)}
	if !o.trace {
		rec.Metrics = endToEndReport(map[string]float64{
			"setup_s":     median(setupS),
			"wall_rel":    wall / median(refs),
			"peak_rss_mb": minRSS(reps),
		})
		rec.Info = map[string]metric{
			"wall_s": {raw["wall_s"], "s"}, "work_per_s": {raw["work_per_s"], "1/s"}, "ref_s": {raw["ref_s"], "s"},
		}
		return rec, nil
	}

	layer := make(map[string]float64)
	for _, rs := range tracedReps {
		for name := range rs.layer {
			if _, done := layer[name]; !done {
				layer[name] = medianOf(tracedReps, func(r repStats) float64 { return r.layer[name] })
			}
		}
	}
	// The overhead compares the best traced with the best untraced
	// repetition: with two or three of each, medians would report the
	// host's noise, which is ten times the cost of a few spans.
	if base := bestSeconds(plainReps); base > 0 {
		layer["bench.trace_overhead_pct"] = 100 * (bestSeconds(tracedReps)/base - 1)
	}
	for name, v := range raw {
		layer["bench."+name] = v
	}
	layer["bench.cpu_s"] = medianOf(tracedReps, func(r repStats) float64 { return r.cpu })
	layer["bench.reps"] = float64(len(reps))
	probeSpan := tr.begin(-1, "probes", -1)
	probed, err := inst.probes(tr, probeSpan)
	tr.end(probeSpan)
	if err != nil {
		return record{}, fmt.Errorf("%s: probes: %w", o.workload, err)
	}
	for name, v := range probed {
		layer[name] = v
	}
	var undeclared []string
	rec.Metrics, undeclared = layerReport(layer)
	if len(undeclared) > 0 {
		return record{}, fmt.Errorf("%s: undeclared per-layer metrics %v", o.workload, undeclared)
	}
	if o.traceOut != "" {
		if err := tr.write(o.traceOut, o.workload, o.seed); err != nil {
			return record{}, err
		}
	}
	return rec, nil
}

// repetitionSeconds is the time of one repetition: the sum over its
// parts of each part's median time across the repetitions. With one
// part that is the median repetition; with many, a burst of
// interference that hits different parts in different repetitions is
// voted out part by part, where the median of whole repetitions would
// keep one of them.
func repetitionSeconds(reps []repStats) float64 { return sumOverParts(reps, median) }

// bestSeconds is repetitionSeconds with each part's fastest time: what
// the repetition costs when nothing interferes.
func bestSeconds(reps []repStats) float64 { return sumOverParts(reps, slices.Min[[]float64]) }

func sumOverParts(reps []repStats, pick func([]float64) float64) float64 {
	if len(reps) == 0 {
		return 0
	}
	xs := make([]float64, len(reps))
	if len(reps[0].parts) == 0 {
		for i, r := range reps {
			xs[i] = r.wall
		}
		return pick(xs)
	}
	var sum float64
	for p := range reps[0].parts {
		for i, r := range reps {
			xs[i] = r.parts[p]
		}
		sum += pick(xs)
	}
	return sum
}

// minRSS is the lowest per-repetition peak of the resident set: the
// memory of one repetition without what earlier ones left behind
// (figures_all leaves some 100 MiB per repetition in pending timers).
func minRSS(reps []repStats) float64 {
	lo := reps[0].rss
	for _, r := range reps {
		lo = min(lo, r.rss)
	}
	return lo
}

func medianOf(reps []repStats, f func(repStats) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return median(xs)
}

// timed runs f as the timed section of a repetition, inside a span on
// a traced one (f gets the span's id as the parent of its own spans),
// and returns its wall and CPU seconds.
func timed(tr *tracer, parent int32, name string, rep int, f func(span int32)) (wall, cpu float64) {
	c0 := cpuSeconds()
	id := tr.begin(parent, name, rep)
	t0 := time.Now()
	f(id)
	wall = time.Since(t0).Seconds()
	tr.end(id)
	return wall, cpuSeconds() - c0
}

// cpuSeconds is the user plus system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS restarts the kernel's resident-set high-water mark, so
// that peakRSSMiB reads the peak since this call. Where the kernel
// refuses, the mark stays that of the whole process.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// mallocs is the cumulative count of heap objects allocated and bytes
// allocated; differences over a section give allocations per unit.
func mallocs() (objects, bytes float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs), float64(ms.TotalAlloc)
}

// nsPerCall times f in growing batches for at least d and returns the
// mean nanoseconds per call.
func nsPerCall(d time.Duration, f func()) float64 {
	f() // warm
	calls, batch := 0, 1
	start := time.Now()
	for {
		for i := 0; i < batch; i++ {
			f()
		}
		calls += batch
		if el := time.Since(start); el >= d {
			return float64(el.Nanoseconds()) / float64(calls)
		}
		batch *= 2
	}
}

// probe times f inside a child span of parent and returns ns per call.
func probe(tr *tracer, parent int32, name string, d time.Duration, f func()) float64 {
	var ns float64
	tr.measure(parent, name, -1, func() { ns = nsPerCall(d, f) })
	return ns
}

// clients is the number of closed-loop driver goroutines.
func clients() int { return min(runtime.NumCPU(), 4) }

// mix derives an independent seed for a named use of the run seed.
func mix(seed uint64, salt uint64) uint64 {
	z := seed + salt*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
