// Command eventsim runs the message-level discrete-event simulator on a
// concrete DHT overlay: a scenario from the pluggable library (massfail,
// churn, flashcrowd, correlated, zipf, or anything registered through
// rcm/eventsim) drives node lifecycles and a lookup workload over a
// configurable transport, and the time-bucketed metrics stream through
// the experiment runner in rcm/exp. With analytic/sim mode flags the
// static-model predictions at the scenario's equivalent failure
// probability q_eff are printed alongside, scoring the paper's static
// framework against real protocol dynamics.
//
// Examples:
//
//	eventsim -protocol chord -bits 12 -scenario massfail -fail 0.3
//	eventsim -protocol kademlia -bits 10 -scenario churn -maintain
//	eventsim -protocol chord -scenario heavytail -lifetime pareto:1.5
//	eventsim -protocol chord -scenario tracechurn -lifetime trace:sessions.txt
//	eventsim -protocol chord -scenario flashcrowd -transport lossy:0.05:empirical
//	eventsim -protocol symphony -scenario zipf -zipf 1.2 -format csv
//
// For performance work, -cpuprofile and -memprofile write pprof profiles
// of the run (`make profile` wraps the benchmark workload), so
// optimization PRs start from a profile instead of a guess:
//
//	eventsim -bits 12 -scenario massfail -rate 20000 -duration 2 \
//	  -mode event -cpuprofile cpu.prof -memprofile mem.prof
//
// For debugging routing behavior, -trace N prints the full hop trace
// (sends, per-hop progress, RTO retransmissions, candidate failovers,
// verdict) of every Nth lookup after the table:
//
//	eventsim -bits 8 -scenario massfail -fail 0.3 -duration 2 -trace 100
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"rcm"
	"rcm/eventsim"
	"rcm/exp"
	"rcm/fault"
	"rcm/internal/table"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "eventsim:", err)
		os.Exit(1)
	}
}

// options is one parsed command line: the run description, in the engine's
// own vocabulary, plus what the CLI decides beyond it.
type options struct {
	// cfg is the run. Every flag that describes the run is bound straight
	// into the field it sets, so the flag set cannot drift from
	// eventsim.Config; -transport and -fault compose one spelling that is
	// parsed once into cfg.Transport.
	cfg eventsim.Config
	// transport is the composed transport spelling, echoed in the title.
	transport, fault string

	modeFlag, format       string
	mode                   exp.Mode
	cpuprofile, memprofile string
}

// newFlags declares the command's flags, bound to o.
func newFlags(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("eventsim", flag.ContinueOnError)
	cfg, p := &o.cfg, &o.cfg.Params
	fs.StringVar(&cfg.Protocol, "protocol", "chord", "protocol: "+strings.Join(rcm.Protocols(), "|"))
	fs.IntVar(&cfg.Overlay.Bits, "bits", 12, "identifier length d (N = 2^d)")
	fs.StringVar(&cfg.Scenario, "scenario", "massfail", "scenario: "+strings.Join(eventsim.ScenarioNames(), "|"))
	fs.Float64Var(&cfg.Duration, "duration", 10, "total simulated time")
	fs.IntVar(&cfg.Buckets, "buckets", 10, "metric windows per run")
	fs.Float64Var(&p.Rate, "rate", 500, "aggregate lookup arrivals per time unit")

	fs.Float64Var(&p.FailFraction, "fail", 0.3, "massfail/correlated: fraction of nodes that fail")
	fs.Float64Var(&p.FailTime, "fail-time", 0, "when the failure hits (0: 30% of duration)")
	fs.IntVar(&p.Regions, "regions", 0, "correlated: contiguous regions to kill (0: default 4)")

	fs.Float64Var(&p.MeanOnline, "mean-online", 0, "churn: mean online session (0: default 1)")
	fs.Float64Var(&p.MeanOffline, "mean-offline", 0, "churn: mean offline duration (0: default 0.25)")

	fs.StringVar(&p.Lifetime, "lifetime", "", "heavytail/diurnal/tracechurn: session distribution: exp | pareto[:alpha] | weibull[:shape] | lognormal[:sigma] | trace:<file>")
	fs.StringVar(&p.Downtime, "downtime", "", "heavytail/diurnal/tracechurn: offline distribution (same spellings as -lifetime)")
	fs.Float64Var(&p.DiurnalPeriod, "diurnal-period", 0, "diurnal: day length (0: half the duration)")
	fs.Float64Var(&p.DiurnalAmplitude, "diurnal-amplitude", 0, "diurnal: session-mean modulation amplitude in [0,1) (0: default 0.6)")

	fs.Float64Var(&p.ZipfS, "zipf", 0, "zipf: target skew s (0: scenario default)")
	fs.Float64Var(&p.Hot, "hot", 0, "flashcrowd: fraction of crowd lookups on the hot key (0: default 0.8)")
	fs.Float64Var(&p.CrowdStart, "crowd-start", 0, "flashcrowd: crowd onset (0: 30% of duration)")
	fs.Float64Var(&p.CrowdDuration, "crowd-duration", 0, "flashcrowd: crowd length (0: 20% of duration)")
	fs.Float64Var(&p.CrowdFactor, "crowd-factor", 0, "flashcrowd: rate multiplier (0: default 10)")

	fs.StringVar(&o.transport, "transport", "constant", "transport: constant[:lat] | empirical[:median] | lossy[:rate[:inner]]")
	fs.StringVar(&o.fault, "fault", "", `fault plan wrapped around the transport, e.g. "partition:2@2-4,dup:0.1" (see rcm/fault; clauses: `+strings.Join(fault.ClauseNames(), "|")+`)`)
	fs.IntVar(&p.Replicas, "replicas", 0, "replicate each key across k successive owners with failover reads (0 or 1: no replication)")
	fs.BoolVar(&cfg.Maintain, "maintain", false, "enable join/stabilize maintenance")
	fs.Float64Var(&cfg.StabilizeEvery, "stabilize-every", 0, "per-node stabilization period (0: default 1)")
	fs.IntVar(&cfg.Shards, "shards", 0, "event wheels to shard the population across (0: default 4)")
	fs.Uint64Var(&cfg.Seed, "seed", 1, "deterministic seed")
	fs.IntVar(&cfg.Overlay.SymphonyNear, "kn", 1, "symphony near neighbors")
	fs.IntVar(&cfg.Overlay.SymphonyShortcuts, "ks", 1, "symphony shortcuts")
	fs.StringVar(&o.modeFlag, "mode", "event+analytic", `measurements, "+"-joined: event|event+analytic|event+analytic+sim`)
	fs.StringVar(&o.format, "format", "ascii", "output format: ascii|csv")

	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the run to this file (inspect with: go tool pprof)")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile taken after the run to this file")

	fs.IntVar(&cfg.Trace, "trace", 0, "print the full hop trace of every Nth lookup after the table (0 disables; ascii format only)")
	return fs
}

// parseFlags parses a command line into options and checks what only the
// CLI can check; the run description itself is validated by the plan.
func parseFlags(args []string) (options, error) {
	var o options
	if err := newFlags(&o).Parse(args); err != nil {
		return o, err
	}
	if o.format != "ascii" && o.format != "csv" {
		return o, fmt.Errorf("unknown format %q", o.format)
	}
	var err error
	if o.mode, err = exp.ParseMode(o.modeFlag); err != nil {
		return o, err
	}
	if o.mode&exp.ModeEvent == 0 {
		return o, fmt.Errorf("-mode %q does not include event (this is the event simulator)", o.modeFlag)
	}
	if kn := o.cfg.Overlay.SymphonyNear; kn < 1 {
		return o, fmt.Errorf("-kn %d must be >= 1", kn)
	}
	if ks := o.cfg.Overlay.SymphonyShortcuts; ks < 1 {
		return o, fmt.Errorf("-ks %d must be >= 1", ks)
	}
	if o.cfg.Trace > 0 && o.format != "ascii" {
		return o, fmt.Errorf("-trace mixes trace text into the output; use -format ascii")
	}
	if o.fault != "" {
		// -fault composes with -transport: the plan wraps whatever inner
		// transport was picked, in the same spec grammar the engine parses.
		o.transport = "fault:" + o.fault + "/" + o.transport
	}
	o.cfg.Transport, err = eventsim.ParseTransport(o.transport)
	return o, err
}

func run(args []string, out io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}

	// Profiles bracket the whole measurement (overlay construction,
	// scenario programming and the event loop), so a perf investigation
	// starts from the same command it will optimize. The heap-profile
	// defer is registered before CPU profiling starts: defers run LIFO,
	// so the CPU profile stops *before* the forced GC and heap encoding —
	// neither pollutes cpu.prof's tail.
	if o.memprofile != "" {
		f, err := os.Create(o.memprofile)
		if err != nil {
			return err
		}
		defer func() {
			// Collect garbage first so the profile shows live engine state,
			// not transient epoch litter.
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "eventsim: memprofile:", err)
			}
			f.Close()
		}()
	}
	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	spec, err := exp.SpecFor(o.cfg.Protocol, o.cfg.Overlay)
	if err != nil {
		return err
	}
	plan := exp.Plan{
		Name:   "eventsim",
		Specs:  []exp.Spec{spec},
		Bits:   []int{o.cfg.Overlay.Bits},
		Events: []eventsim.Config{o.cfg},
	}
	runOpts := []exp.Option{exp.WithModes(o.mode), exp.WithSeed(o.cfg.Seed)}

	if o.format == "csv" {
		return exp.StreamCSV(out, exp.Stream(context.Background(), plan, runOpts...))
	}

	rows, err := exp.Run(context.Background(), plan, runOpts...)
	if err != nil {
		return err
	}
	if err := renderASCII(out, o, rows); err != nil {
		return err
	}
	if o.cfg.Trace > 0 {
		return renderTraces(out, o.cfg)
	}
	return nil
}

// renderTraces runs the same configuration through the engine directly —
// rows do not carry traces — and prints each sampled lookup's
// event-by-event route. A second run is fine for a debug flag: the engine
// is deterministic, so the traced run is the run the table came from.
func renderTraces(out io.Writer, cfg eventsim.Config) error {
	res, err := eventsim.Run(cfg)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(out, "hop traces (every %d%s lookup, %d sampled):\n",
		cfg.Trace, ordinal(cfg.Trace), len(res.Traces)); err != nil {
		return err
	}
	return eventsim.WriteTraces(out, res)
}

// ordinal returns the English ordinal suffix for n.
func ordinal(n int) string {
	switch {
	case n%100 >= 11 && n%100 <= 13:
		return "th"
	case n%10 == 1:
		return "st"
	case n%10 == 2:
		return "nd"
	case n%10 == 3:
		return "rd"
	}
	return "th"
}

// renderASCII prints the bucket series as a table, plus a summary of the
// static-model comparison when analytic/sim columns were computed.
func renderASCII(out io.Writer, o options, rows []exp.Row) error {
	mode := o.mode
	if len(rows) == 0 {
		return fmt.Errorf("no rows produced")
	}
	first := rows[0]
	cols := []string{"t", "started", "success %", "mean hops", "hops p99", "latency", "lat p99", "msgs/node/s", "maint/node/s", "online %"}
	replicas := o.cfg.Params.Replicas
	replicated := replicas > 1
	if replicated {
		cols = append(cols, "repair/node/s")
	}
	title := fmt.Sprintf("%s · %s scenario, N=2^%d, transport %s, q_eff=%.3g",
		first.Protocol, first.Scenario, first.Bits, o.transport, first.Q)
	if replicated {
		title += fmt.Sprintf(", k=%d", replicas)
	}
	t := table.New(title, cols...)
	for _, r := range rows {
		cells := []string{
			table.F(r.Time, 1),
			fmt.Sprintf("%d", r.EventStarted),
			table.Pct(r.EventSuccess, 2),
			table.F(r.EventMeanHops, 2),
			table.F(r.EventHopsP99, 0),
			table.F(r.EventMeanLatency, 3),
			table.F(r.EventLatencyP99, 3),
			table.F(r.EventMsgsNodeS, 3),
			table.F(r.EventMaintNodeS, 3),
			table.Pct(r.EventOnline, 1),
		}
		if replicated {
			cells = append(cells, table.F(r.EventRepairNodeS, 3))
		}
		t.AddRow(cells...)
	}
	if _, err := fmt.Fprintln(out, t.ASCII()); err != nil {
		return err
	}
	if mode&(exp.ModeAnalytic|exp.ModeSim) != 0 {
		s := table.New(fmt.Sprintf("static model at q_eff=%.3g", first.Q), "source", "routability %")
		if mode&exp.ModeAnalytic != 0 {
			s.AddRow("analytic (RCM)", table.Pct(first.AnalyticRoutability, 2))
		}
		if mode&exp.ModeSim != 0 {
			s.AddRow("static simulation", table.Pct(first.SimRoutability, 2))
		}
		last := rows[len(rows)-1]
		s.AddRow("event steady state", table.Pct(last.EventSuccess, 2))
		if _, err := fmt.Fprintln(out, s.ASCII()); err != nil {
			return err
		}
	}
	return nil
}
