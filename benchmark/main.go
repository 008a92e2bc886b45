// Command benchmark measures the repository end to end and layer by
// layer: seven workloads across the analytic, graph, event and live
// layers, each set up, run for a fixed time in equal repetitions,
// checked, and reported as medians. See README.md.
//
//	bash benchmark/run.sh --workload static_sim --seed 3 --seconds 8 --trace 0
//	bash benchmark/run.sh --all            # every workload, untraced then traced
//	bash benchmark/run.sh --compare benchmark/baseline/set1.json benchmark/baseline/set2.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (see -list)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed every input derives from")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "length of the measured window")
	trace := flag.Int("trace", 0, "1: trace and report the per-layer metrics; 0: report the end-to-end metrics")
	flag.StringVar(&o.scale, "scale", "full", "sizes: full or smoke")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the spans of a traced run to this file")
	recordOut := flag.String("record", "", "write the full record of the run to this file")
	all := flag.Bool("all", false, "run every workload, one process each, untraced then traced")
	runs := flag.Int("runs", 1, "with -all: untraced runs per workload, on seeds seed, seed+1, ...")
	outDir := flag.String("out", "out", "with -all: directory for results.json and trace/")
	compare := flag.Bool("compare", false, "compare two result sets: -compare a.json b.json")
	list := flag.Bool("list", false, "list the workloads")
	printSpec := flag.Bool("spec", false, "print BENCHMARK.json as the declarations define it")
	flag.Parse()
	o.trace = *trace != 0

	switch {
	case *list:
		for _, w := range workloadDecls {
			fmt.Printf("%-16s [%s] %s\n", w.Name, w.Work, w.Why)
		}
	case *printSpec:
		b, err := json.MarshalIndent(spec(), "", "  ")
		check(err)
		fmt.Println(string(b))
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: -compare a.json b.json")
		}
		ok, err := compareSets(os.Stdout, flag.Arg(0), flag.Arg(1))
		check(err)
		if !ok {
			os.Exit(1)
		}
	case *all:
		ok, err := runAll(o, *runs, *outDir)
		check(err)
		if !ok {
			os.Exit(1)
		}
	default:
		rec, err := run(o)
		check(err)
		printRecord(rec)
		if *recordOut != "" {
			b, err := json.Marshal(rec)
			check(err)
			check(os.WriteFile(*recordOut, b, 0o644))
		}
		if !rec.Correct {
			os.Exit(1)
		}
	}
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "benchmark:", msg)
	os.Exit(2)
}

func check(err error) {
	if err != nil {
		fatal(err.Error())
	}
}

// printRecord prints every metric as "workload metric value unit", any
// failed check, and as the last line the result object.
func printRecord(rec record) {
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rec.Metrics[name]
		fmt.Printf("%s %s %s %s\n", rec.Workload, name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	for name, m := range rec.Info {
		fmt.Printf("%s %s %s %s (raw, no bound)\n", rec.Workload, name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	for _, f := range rec.Failures {
		fmt.Printf("%s FAILED %s\n", rec.Workload, f)
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	check(err)
	fmt.Println(string(b))
}

// resultSet is the content of results.json and of the baseline sets.
type resultSet struct {
	Runs []record `json:"runs"`
}

// runAll runs every workload in a process of its own, so that peak RSS
// is per workload: all of them untraced on each seed, then all of them
// traced on the first.
func runAll(o options, runs int, outDir string) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(filepath.Join(outDir, "trace"), 0o755); err != nil {
		return false, err
	}
	tmp := filepath.Join(outDir, "record.json")
	defer os.Remove(tmp)
	var set resultSet
	ok := true
	for _, trace := range []string{"0", "1"} {
		for _, w := range workloadDecls {
			for r := 0; r < runs; r++ {
				if trace == "1" && r > 0 {
					break // the per-layer numbers are diagnostic: one traced run
				}
				args := []string{
					"-workload", w.Name, "-seed", strconv.FormatUint(o.seed+uint64(r), 10),
					"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
					"-trace", trace, "-scale", o.scale, "-record", tmp,
				}
				if trace == "1" {
					args = append(args, "-trace-out", filepath.Join(outDir, "trace", w.Name+".json"))
				}
				cmd := exec.Command(self, args...)
				cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
				if err := cmd.Run(); err != nil {
					ok = false
					if _, exited := err.(*exec.ExitError); !exited {
						return false, err
					}
				}
				b, err := os.ReadFile(tmp)
				if err != nil {
					continue // the run died before it had a record
				}
				os.Remove(tmp)
				var rec record
				if err := json.Unmarshal(b, &rec); err != nil {
					return false, err
				}
				set.Runs = append(set.Runs, rec)
			}
		}
	}
	b, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return false, err
	}
	return ok, os.WriteFile(filepath.Join(outDir, "results.json"), append(b, '\n'), 0o644)
}
