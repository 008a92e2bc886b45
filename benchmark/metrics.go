package main

import "sort"

// workloadDecl names one workload and the reason it exists; the
// reason is what BENCHMARK.json records as "why".
type workloadDecl struct {
	Name string
	// Work is the unit of work bench.work_per_s counts on this workload.
	Work string
	Why  string
}

var workloadDecls = []workloadDecl{
	{"analytic_grid", "rows", "The paper's own product, Eq. 3 over a 1330-row grid: internal/core, internal/numeric and the exp memo do all the work; dht, eventsim and node do none."},
	{"static_sim", "routes", "Fig. 6 at the paper's N=2^16: dht build and Route, internal/sim and the overlay bitset/RNG dominate; the analytic cost is nil."},
	{"figures_all", "figures", "Every registered figure once per repetition: the only workload that crosses every layer, so a gain anywhere shows diluted and a regression anywhere is caught."},
	{"eventsim_churn", "events", "Engine under churn with maintenance at 2^12: timer- and maintenance-dominated, cache-resident, writes routing tables."},
	{"eventsim_large", "events", "Engine on one prebuilt 2^20 overlay under massfail: message-dominated, read-only, cache-hostile; the opposite use of eventsim_churn's code."},
	{"live_mem_lookup", "ops", "128 live chord nodes on the in-memory transport, closed-loop lookups: per-hop CPU, allocations and goroutine hand-offs with no kernel and no store."},
	{"live_udp_kv", "ops", "128 live kademlia nodes on UDP loopback, 50/50 put/get with 3 replicas: writes beside reads, payload datagrams, real sockets; bypasses what a lookup-only or mem-only gain touches."},
}

// endToEndDecl is one metric a user of the system sees. Bound is the
// share of the parent's median by which it may worsen.
type endToEndDecl struct {
	Name, Unit, Better string
	Bound              float64
}

var endToEndDecls = []endToEndDecl{
	{"setup_s", "s", "lower", 0.25},
	{"wall_rel", "x", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

// layerDecl is one metric of a single layer. Moves names the end-to-end
// metric it should move and On the workloads where it is measured and
// that prediction holds; on every other workload the run does not
// exercise the layer this way, the metric reads 0 and the prediction is
// no change.
type layerDecl struct {
	Name, Unit, Better string
	Layer              string
	Moves              string
	On                 []string
}

var (
	onAnalytic = []string{"analytic_grid"}
	onSim      = []string{"static_sim"}
	onFigures  = []string{"figures_all"}
	onChurn    = []string{"eventsim_churn"}
	onEventsim = []string{"eventsim_churn", "eventsim_large"}
	onLive     = []string{"live_mem_lookup", "live_udp_kv"}
	onUDP      = []string{"live_udp_kv"}
	onAll      = []string{"analytic_grid", "static_sim", "figures_all", "eventsim_churn", "eventsim_large", "live_mem_lookup", "live_udp_kv"}
)

var (
	geometryNames = []string{"tree", "hypercube", "xor", "ring", "symphony"}
	protocolNames = []string{"plaxton", "can", "kademlia", "chord", "symphony"}
)

var layerDecls = buildLayerDecls()

func buildLayerDecls() []layerDecl {
	d := []layerDecl{
		{"exp.ns_per_row", "ns", "lower", "exp", "wall_rel", []string{"analytic_grid", "static_sim"}},
		{"exp.serial_nomemo_ns_per_row", "ns", "lower", "exp", "wall_rel", onAnalytic},
		{"exp.memo_speedup", "x", "higher", "exp", "wall_rel", onAnalytic},
		{"exp.encode_ns_per_row", "ns", "lower", "exp", "wall_rel", onAnalytic},
		{"exp.allocs_per_row", "count", "lower", "exp", "wall_rel", onAnalytic},

		{"core.routability_d16_ns", "ns", "lower", "internal/core", "wall_rel", onAnalytic},
		{"core.phase_failure_ns", "ns", "lower", "internal/core", "wall_rel", onAnalytic},
		{"core.classify_ms", "ms", "lower", "internal/core", "wall_rel", onAnalytic},
	}
	for _, g := range geometryNames {
		d = append(d, layerDecl{"core.routability_d100_ns." + g, "ns", "lower", "internal/core", "wall_rel", onAnalytic})
	}
	for _, p := range protocolNames {
		on := onSim
		if p == "chord" {
			// chord is also the overlay of both eventsim workloads and
			// of live_mem_lookup, built there at their own sizes.
			on = []string{"static_sim", "eventsim_churn", "eventsim_large", "live_mem_lookup"}
		}
		if p == "kademlia" {
			on = []string{"static_sim", "live_udp_kv"}
		}
		d = append(d, layerDecl{"dht.build_ms." + p, "ms", "lower", "internal/dht", "wall_rel", on})
	}
	for _, p := range protocolNames {
		d = append(d, layerDecl{"dht.route_ns." + p, "ns", "lower", "internal/dht", "wall_rel", onSim})
	}
	d = append(d,
		layerDecl{"dht.candidate_hops_ns.chord", "ns", "lower", "internal/dht", "wall_rel", []string{"eventsim_churn", "eventsim_large", "live_mem_lookup"}},
		layerDecl{"dht.candidate_hops_ns.kademlia", "ns", "lower", "internal/dht", "wall_rel", onUDP},

		layerDecl{"sim.static_ns_per_pair", "ns", "lower", "internal/sim", "wall_rel", onSim},
		layerDecl{"sim.routable_share", "share", "higher", "internal/sim", "wall_rel", onSim},
		layerDecl{"overlay.bitset_fill_ns_per_node", "ns", "lower", "overlay", "wall_rel", onSim},
		layerDecl{"overlay.rng_ns", "ns", "lower", "overlay", "wall_rel", onSim},

		layerDecl{"percolation.components_ms", "ms", "lower", "internal/percolation", "wall_rel", onFigures},
		layerDecl{"markov.xor_chain_solve_us", "us", "lower", "internal/markov", "wall_rel", onFigures},
		layerDecl{"figures.6a_s", "s", "lower", "internal/figures", "wall_rel", onFigures},
		layerDecl{"figures.6b_s", "s", "lower", "internal/figures", "wall_rel", onFigures},
		layerDecl{"figures.paper_s", "s", "lower", "internal/figures", "wall_rel", onFigures},
		layerDecl{"figures.extension_s", "s", "lower", "internal/figures", "wall_rel", onFigures},
		layerDecl{"figures.slowest_s", "s", "lower", "internal/figures", "wall_rel", onFigures},

		layerDecl{"eventsim.events", "count", "lower", "eventsim", "wall_rel", onEventsim},
		layerDecl{"eventsim.ns_per_event", "ns", "lower", "eventsim", "wall_rel", onEventsim},
		layerDecl{"eventsim.events_per_lookup", "count", "lower", "eventsim", "wall_rel", onEventsim},
		layerDecl{"eventsim.timeouts_per_lookup", "count", "lower", "eventsim", "wall_rel", onEventsim},
		layerDecl{"eventsim.lookup_success", "share", "higher", "eventsim", "wall_rel", onEventsim},
		layerDecl{"eventsim.allocs_per_event", "count", "lower", "eventsim", "wall_rel", onEventsim},
		layerDecl{"eventsim.build_schedule_ms", "ms", "lower", "eventsim", "wall_rel", onEventsim},
		layerDecl{"eventsim.shards2_speedup", "x", "higher", "eventsim", "wall_rel", onEventsim},
		layerDecl{"eventsim.maint_msg_share", "share", "lower", "eventsim", "wall_rel", onChurn},
		layerDecl{"eventsim.massfail_2p12_events_per_s", "1/s", "higher", "eventsim", "wall_rel", onChurn},

		layerDecl{"node.store_get_ns", "ns", "lower", "node", "wall_rel", onUDP},
		layerDecl{"node.store_put_ns", "ns", "lower", "node", "wall_rel", onUDP},
		layerDecl{"node.rtt_us", "us", "lower", "node", "wall_rel", onLive},
		layerDecl{"node.rtt_1k_us", "us", "lower", "node", "wall_rel", onLive},
		layerDecl{"node.local_op_us", "us", "lower", "node", "wall_rel", onLive},
		layerDecl{"node.onehop_op_us", "us", "lower", "node", "wall_rel", onLive},
		layerDecl{"node.per_hop_us", "us", "lower", "node", "wall_rel", onLive},
		layerDecl{"node.msgs_per_op", "count", "lower", "node", "wall_rel", onLive},
		layerDecl{"node.mean_hops", "count", "lower", "node", "wall_rel", onLive},
		layerDecl{"node.allocs_per_op", "count", "lower", "node", "wall_rel", onLive},
		layerDecl{"node.bytes_per_op", "B", "lower", "node", "peak_rss_mb", onLive},
		layerDecl{"node.timeouts_per_kop", "count", "lower", "node", "wall_rel", onLive},
		layerDecl{"node.retries_per_kop", "count", "lower", "node", "wall_rel", onLive},
		layerDecl{"node.shed_expired", "count", "lower", "node", "wall_rel", onLive},
		layerDecl{"node.lat_p50_us", "us", "lower", "node", "wall_rel", onLive},
		layerDecl{"node.lat_p90_us", "us", "lower", "node", "wall_rel", onLive},
		layerDecl{"node.inner_lat_p50_us", "us", "lower", "node", "wall_rel", onLive},
		layerDecl{"node.caller_overhead_us", "us", "lower", "node", "wall_rel", onLive},
		layerDecl{"node.put_lat_p50_us", "us", "lower", "node", "wall_rel", onUDP},
		layerDecl{"node.get_lat_p50_us", "us", "lower", "node", "wall_rel", onUDP},
		layerDecl{"node.store_hit_ratio", "share", "higher", "node", "wall_rel", onUDP},

		layerDecl{"cluster.boot_ms", "ms", "lower", "node/cluster", "setup_s", onLive},
		layerDecl{"cluster.close_ms", "ms", "lower", "node/cluster", "setup_s", onLive},
		layerDecl{"cluster.lat_p99_us", "us", "lower", "node/cluster", "wall_rel", onLive},
		layerDecl{"cluster.lat_p999_us", "us", "lower", "node/cluster", "wall_rel", onLive},

		layerDecl{"replica.for_k3_ns", "ns", "lower", "replica", "wall_rel", onUDP},
		layerDecl{"obs.observe_ns", "ns", "lower", "obs", "wall_rel", []string{"eventsim_churn", "eventsim_large", "live_mem_lookup", "live_udp_kv"}},
		layerDecl{"obs.quantile_ns", "ns", "lower", "obs", "wall_rel", []string{"eventsim_churn", "eventsim_large", "live_mem_lookup", "live_udp_kv"}},

		layerDecl{"bench.trace_overhead_pct", "%", "lower", "benchmark", "wall_rel", onAll},
		layerDecl{"bench.wall_s", "s", "lower", "benchmark", "wall_rel", onAll},
		layerDecl{"bench.work_per_s", "1/s", "higher", "benchmark", "wall_rel", onAll},
		layerDecl{"bench.ref_s", "s", "lower", "benchmark", "wall_rel", onAll},
		layerDecl{"bench.cpu_s", "s", "lower", "benchmark", "wall_rel", onAll},
		layerDecl{"bench.reps", "count", "higher", "benchmark", "wall_rel", onAll},
	)
	return d
}

// benchmarkSpec is the content of BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specEndToEnd `json:"end_to_end"`
	PerLayer   []specLayer    `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specEndToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type specLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSeconds is the measured window the driver asks for.
const runSeconds = 10

// spec renders the declarations above as BENCHMARK.json; the schema
// test holds the committed file to it.
func spec() benchmarkSpec {
	s := benchmarkSpec{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadDecls {
		s.Workloads = append(s.Workloads, specWorkload{w.Name, w.Why})
	}
	for _, m := range endToEndDecls {
		s.EndToEnd = append(s.EndToEnd, specEndToEnd{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range layerDecls {
		s.PerLayer = append(s.PerLayer, specLayer{m.Name, m.Unit, m.Better})
	}
	return s
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndReport attaches the declared units to the end-to-end values.
func endToEndReport(got map[string]float64) map[string]metric {
	out := make(map[string]metric, len(endToEndDecls))
	for _, d := range endToEndDecls {
		out[d.Name] = metric{got[d.Name], d.Unit}
	}
	return out
}

// layerReport fills every declared per-layer metric: the measured value
// where the workload exercises the layer, 0 elsewhere. It returns the
// names in got that no declaration covers, which is a harness bug.
func layerReport(got map[string]float64) (map[string]metric, []string) {
	out := make(map[string]metric, len(layerDecls))
	for _, d := range layerDecls {
		out[d.Name] = metric{got[d.Name], d.Unit}
	}
	var undeclared []string
	for name := range got {
		if _, ok := out[name]; !ok {
			undeclared = append(undeclared, name)
		}
	}
	sort.Strings(undeclared)
	return out, undeclared
}
