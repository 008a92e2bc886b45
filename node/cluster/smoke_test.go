package cluster

import (
	"os"
	"testing"

	"rcm/eventsim"
)

// TestClusterSmoke is the `make cluster-smoke` gate: boot 64-node
// in-process clusters on virtual time — plain chord, single-hop, and
// 3-replicated chord — replay a massfail schedule against each, and
// require a nonzero lookup success. It is the cheap always-on signal
// that the live stack boots, routes, kills, fails over (across
// candidates and across replica owners); the full tolerance comparison
// lives in TestConformanceLiveVsEventsim.
func TestClusterSmoke(t *testing.T) {
	for _, cell := range []struct {
		protocol string
		replicas int
	}{
		{"chord", 0},
		{"singlehop", 0},
		{"chord", 3},
	} {
		cfg := conformanceConfig(cell.protocol, 6, 0.2, 5) // 64 nodes
		cfg.Params.Replicas = cell.replicas
		sched, err := eventsim.BuildSchedule(cfg)
		if err != nil {
			t.Fatalf("%s k=%d: BuildSchedule: %v", cell.protocol, cell.replicas, err)
		}
		c := liveCluster(t, cfg)
		report, err := c.Replay(sched)
		if err != nil {
			t.Fatalf("%s k=%d: replay: %v", cell.protocol, cell.replicas, err)
		}
		succ := report.WindowSuccess(0, cfg.Duration)
		if !(succ > 0) {
			t.Fatalf("%s k=%d: smoke replay success %v, want > 0", cell.protocol, cell.replicas, succ)
		}
		t.Logf("smoke: %s k=%d, 64 nodes, %d lookups, success %.4f",
			cell.protocol, cell.replicas, len(report.Outcomes), succ)

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
