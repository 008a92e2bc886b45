// Churn demo: the paper's static resilience model assumes failures happen
// faster than repairs (§1) and leaves the dynamic regime open. This example
// runs the message-level event simulator on a Chord overlay whose nodes
// alternate online and offline with exponential sessions, and shows (a)
// that with static tables the steady state reproduces the static
// prediction at the equivalent failure probability q_eff, and (b) how much
// join/stabilize maintenance recovers — and what it costs in messages.
package main

import (
	"fmt"
	"log"

	"rcm"
	"rcm/eventsim"
)

func main() {
	const (
		bits = 12
		// Slow churn: sessions last hundreds of lookups, so the alive
		// pattern is effectively frozen while a lookup is in flight — the
		// regime in which compressing churn into q_eff is exact.
		meanOnline  = 40.0
		meanOffline = 10.0 // steady-state offline fraction 20%
		burnIn      = 1.0
	)
	cfg := eventsim.Config{
		Protocol: "chord",
		Overlay:  eventsim.OverlayConfig{Bits: bits},
		Scenario: "churn",
		Params:   eventsim.Params{MeanOnline: meanOnline, MeanOffline: meanOffline, Rate: 4000},
		Duration: 10,
		Seed:     7,
	}
	qEff := cfg.QEff()

	// The static model at q_eff, on the very overlay the event runs use
	// (same protocol, bits and seed).
	static, err := rcm.Simulate(rcm.SimConfig{
		Protocol: "chord", Config: rcm.Config{Bits: bits, Seed: cfg.Seed}, Q: qEff,
		Pairs: 20000, Trials: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	analytic, err := rcm.Ring().Routability(bits, qEff)
	if err != nil {
		log.Fatal(err)
	}

	staticTables, err := eventsim.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Maintain = true
	maintained, err := eventsim.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Chord under churn, N=2^%d, sessions Exp(%.0f) on / Exp(%.0f) off (q_eff=%.0f%%)\n\n",
		bits, meanOnline, meanOffline, 100*qEff)
	fmt.Printf("%-6s  %-9s  %-25s  %-23s  %-12s\n", "time", "online %", "success % (static tables)", "success % (maintenance)", "maint/node/s")
	online, maintRate, steady := 0.0, 0.0, 0.0
	for i, b := range staticTables.Buckets {
		m := maintained.Buckets[i]
		rate := float64(m.MaintMessages) / (float64(maintained.Nodes) * (m.End - m.Start))
		fmt.Printf("%-6.1f  %-9.1f  %-25.2f  %-23.2f  %-12.3f\n",
			b.End, 100*b.OnlineFraction, 100*b.Success(), 100*m.Success(), rate)
		if b.Start >= burnIn {
			online += b.OnlineFraction
			maintRate += rate
			steady++
		}
	}
	online, maintRate = online/steady, maintRate/steady

	fmt.Println()
	fmt.Printf("steady state online fraction  : %.1f%% (expected %.0f%%)\n", 100*online, 100*(1-qEff))
	fmt.Printf("churn, static tables          : %.2f%%\n", 100*staticTables.WindowSuccess(burnIn, cfg.Duration))
	fmt.Printf("static-model simulation       : %.2f%% ± %.2f  <- the paper's model, applied at q_eff\n",
		100*static.Routability, 100*(static.CI95High-static.CI95Low)/2)
	fmt.Printf("static-model analytic (Eq. 3) : %.2f%%  (lower bound for ring)\n", 100*analytic)
	fmt.Printf("churn with maintenance        : %.2f%%  <- what maintenance buys back,\n", 100*maintained.WindowSuccess(burnIn, cfg.Duration))
	fmt.Printf("                                        for %.2f messages per node per time unit\n", maintRate)
}
