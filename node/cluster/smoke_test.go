package cluster

import (
	"os"
	"testing"
	"time"

	"rcm/eventsim"
)

// TestClusterSmoke is the `make cluster-smoke` gate: boot 64-node
// in-process clusters on virtual time — plain chord, single-hop, and
// 3-replicated chord — replay a massfail schedule against each, and
// require a nonzero lookup success. It is the cheap always-on signal
// that the live stack boots, routes, kills, fails over (across
// candidates and across replica owners); the per-lookup comparison with
// eventsim lives in TestConformanceLiveVsEventsim.
func TestClusterSmoke(t *testing.T) {
	for _, cell := range []struct {
		protocol string
		replicas int
	}{
		{"chord", 0},
		{"singlehop", 0},
		{"chord", 3},
	} {
		cfg := eventsim.Config{
			Protocol:    cell.protocol,
			Overlay:     eventsim.OverlayConfig{Bits: 6, Seed: 5}, // 64 nodes
			Scenario:    "massfail",
			Params:      eventsim.Params{FailFraction: 0.2, FailTime: 1, Rate: 200, Replicas: cell.replicas},
			Duration:    4,
			Seed:        5,
			Retransmits: -1,
		}
		sched, err := eventsim.BuildSchedule(cfg)
		if err != nil {
			t.Fatalf("%s k=%d: BuildSchedule: %v", cell.protocol, cell.replicas, err)
		}
		c := bootCluster(t, cfg, "sim", 15*time.Millisecond)
		report, err := c.Replay(sched)
		if err != nil {
			t.Fatalf("%s k=%d: replay: %v", cell.protocol, cell.replicas, err)
		}
		ok := 0
		for _, o := range report.Outcomes {
			if o.OK {
				ok++
			}
		}
		if ok == 0 {
			t.Fatalf("%s k=%d: no lookup of %d succeeded", cell.protocol, cell.replicas, len(report.Outcomes))
		}
		t.Logf("smoke: %s k=%d, 64 nodes, %d of %d lookups succeeded",
			cell.protocol, cell.replicas, ok, len(report.Outcomes))

		// CI artifact: when CLUSTER_METRICS_OUT names a file, write the
		// first (plain chord) cell's cluster-wide metrics snapshot
		// (counters, gauges, histogram percentiles) there in the
		// /debug/vars JSON shape, so every CI run keeps an inspectable
		// record of what the live stack did.
		if out := os.Getenv("CLUSTER_METRICS_OUT"); out != "" && cell.protocol == "chord" && cell.replicas == 0 {
			f, err := os.Create(out)
			if err != nil {
				t.Fatalf("CLUSTER_METRICS_OUT: %v", err)
			}
			if err := c.Metrics().Snapshot("cluster").WriteJSON(f); err != nil {
				t.Errorf("write metrics snapshot: %v", err)
			}
			f.Close()
			t.Logf("smoke: wrote cluster metrics snapshot to %s", out)
		}
	}
}
