package cluster_test

import (
	"fmt"
	"log"

	"rcm/eventsim"
	"rcm/node/cluster"
)

// ExampleCluster_Replay replays the schedule eventsim runs on a live
// 32-node chord cluster on virtual time, and reads lookup success over
// the same window from both executors: the live side counts it from the
// report's per-lookup outcomes. At q = 0 every lookup of both reaches
// its owner.
func ExampleCluster_Replay() {
	cfg := eventsim.Config{
		Protocol: "chord",
		Overlay:  eventsim.OverlayConfig{Bits: 5, Seed: 11},
		Scenario: "massfail",
		Params:   eventsim.Params{FailFraction: 0, FailTime: 1, Rate: 200},
		Duration: 4,
		Seed:     11,
	}
	sched, err := eventsim.BuildSchedule(cfg) // the workload, as data
	if err != nil {
		log.Fatal(err)
	}
	c, err := cluster.New(cluster.Config{Protocol: "chord", Bits: 5, Seed: 11, Transport: "sim"})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	report, err := c.Replay(sched)
	if err != nil {
		log.Fatal(err)
	}
	res, err := eventsim.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	issued, ok := 0, 0
	for _, o := range report.Outcomes {
		if o.T >= 2 && !o.Skipped {
			issued++
			if o.OK {
				ok++
			}
		}
	}
	fmt.Printf("live %.2f, sim %.2f\n", float64(ok)/float64(issued), res.WindowSuccess(2, 4))
	// Output: live 1.00, sim 1.00
}
