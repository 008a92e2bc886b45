package cluster

import (
	"slices"
	"strings"
	"testing"

	"rcm/obs"
)

// TestMetricsDocumentGolden pins the rendered metrics document — the
// shape behind rcmd's /debug/vars, /metrics, the stats command and the
// CLUSTER_METRICS_OUT artifact: every name, the section it renders in
// and the order. Values other than the op counts are wall-clock
// dependent and not compared.
func TestMetricsDocumentGolden(t *testing.T) {
	c, err := New(Config{Protocol: "chord", Bits: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !c.Node(0).Lookup(9).OK() {
		t.Fatal("lookup failed")
	}
	if !c.Node(3).Put("golden-key", []byte("v")).OK() {
		t.Fatal("put failed")
	}
	if !c.Node(12).Get("golden-key").OK() {
		t.Fatal("get failed")
	}
	snap := c.Metrics().Snapshot("cluster")

	wantCounters := []string{
		"cluster_acks_in", "cluster_acks_out", "cluster_dup_reqs", "cluster_expired",
		"cluster_failovers", "cluster_reqs_in", "cluster_reqs_out", "cluster_resps_in",
		"cluster_resps_out", "cluster_retransmits", "cluster_rto_timeouts", "cluster_shed",
		"cluster_store_evictions", "cluster_store_gets", "cluster_store_hits", "cluster_store_puts",
	}
	wantGauges := []string{"cluster_down", "cluster_inflight", "cluster_store_len", "cluster_waiting"}
	wantHists := []string{
		"cluster_get_latency_us", "cluster_hops", "cluster_lookup_latency_us", "cluster_put_latency_us",
	}
	names := func(vs []obs.NamedValue) []string {
		out := make([]string, len(vs))
		for i, v := range vs {
			out[i] = v.Name
		}
		return out
	}
	if got := names(snap.Counters); !slices.Equal(got, wantCounters) {
		t.Errorf("counters\n got %v\nwant %v", got, wantCounters)
	}
	if got := names(snap.Gauges); !slices.Equal(got, wantGauges) {
		t.Errorf("gauges\n got %v\nwant %v", got, wantGauges)
	}
	var gotHists []string
	for _, h := range snap.Hists {
		gotHists = append(gotHists, h.Name)
	}
	if !slices.Equal(gotHists, wantHists) {
		t.Errorf("histograms\n got %v\nwant %v", gotHists, wantHists)
	}

	// The three ops are visible where the document says they are.
	value := func(vs []obs.NamedValue, name string) int64 {
		for _, v := range vs {
			if v.Name == name {
				return v.Value
			}
		}
		t.Fatalf("%s missing", name)
		return 0
	}
	if got := value(snap.Counters, "cluster_store_puts"); got != 1 {
		t.Errorf("cluster_store_puts = %d, want 1", got)
	}
	if got := value(snap.Counters, "cluster_store_hits"); got != 1 {
		t.Errorf("cluster_store_hits = %d, want 1", got)
	}
	if got := value(snap.Gauges, "cluster_store_len"); got != 1 {
		t.Errorf("cluster_store_len = %d, want 1", got)
	}
	for i, want := range []uint64{1, 3, 1, 1} {
		if got := snap.Hists[i].Hist.Count(); got != want {
			t.Errorf("%s count = %d, want %d", snap.Hists[i].Name, got, want)
		}
	}

	// Text rendering: one line per name, counters then gauges then
	// histograms, in the order above.
	var tb strings.Builder
	if err := snap.WriteText(&tb); err != nil {
		t.Fatal(err)
	}
	var lineNames []string
	for _, line := range strings.Split(strings.TrimSpace(tb.String()), "\n") {
		lineNames = append(lineNames, strings.Fields(line)[0])
	}
	if want := slices.Concat(wantCounters, wantGauges, wantHists); !slices.Equal(lineNames, want) {
		t.Errorf("text lines\n got %v\nwant %v", lineNames, want)
	}
}
