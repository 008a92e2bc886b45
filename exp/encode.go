package exp

import (
	"io"
	"iter"
	"math"
	"strconv"
	"strings"
)

// Header returns the CSV column names, in encoding order.
func Header() []string {
	return []string{
		"plan", "kind", "geometry", "system", "protocol", "bits", "q",
		"analytic_routability", "analytic_failed_pct", "analytic_reach",
		"sim_routability", "sim_failed_pct", "sim_stderr", "sim_mean_hops",
		"sim_alive", "sim_pairs", "sim_trials",
		"scenario", "time", "event_started", "event_success",
		"event_mean_hops", "event_mean_latency",
		"event_msgs_node_s", "event_maint_node_s", "event_online",
		// Appended after the original columns so pre-existing readers
		// (and golden files' shared prefix) see byte-identical cells.
		"event_hops_p50", "event_hops_p99", "event_hops_p999",
		"event_latency_p50", "event_latency_p99", "event_latency_p999",
		"event_replicas", "event_repair_node_s",
	}
}

// appendCells appends the row's cells to b in Header order, joined by
// commas: the one spelling of the column order.
// NaN and ±Inf become empty cells; floats carry full round-trip precision
// so golden files are exact.
func (r Row) appendCells(b []byte) []byte {
	b = append(b, r.Plan...)
	b = strs(b, r.Kind, r.Geometry, r.System, r.Protocol)
	b = strconv.AppendInt(append(b, ','), int64(r.Bits), 10)
	b = nums(b, r.Q,
		r.AnalyticRoutability, r.AnalyticFailedPct, r.AnalyticReach,
		r.SimRoutability, r.SimFailedPct, r.SimStdErr, r.SimMeanHops, r.SimAlive)
	b = counts(b, r.SimPairs, r.SimTrials)
	b = strs(b, r.Scenario)
	b = nums(b, r.Time)
	b = eventCount(b, r.Kind, r.EventStarted)
	b = nums(b, r.EventSuccess, r.EventMeanHops, r.EventMeanLatency,
		r.EventMsgsNodeS, r.EventMaintNodeS, r.EventOnline,
		r.EventHopsP50, r.EventHopsP99, r.EventHopsP999,
		r.EventLatencyP50, r.EventLatencyP99, r.EventLatencyP999)
	b = eventCount(b, r.Kind, r.EventReplicas)
	return nums(b, r.EventRepairNodeS)
}

// strs appends one cell per string, each after a comma.
func strs(b []byte, ss ...string) []byte {
	for _, s := range ss {
		b = append(append(b, ','), s...)
	}
	return b
}

// nums appends one cell per float, each after a comma: the shortest
// round-trip decimal, empty for non-finite values (NaN marks "not
// measured").
func nums(b []byte, vs ...float64) []byte {
	for _, v := range vs {
		b = append(b, ',')
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		}
	}
	return b
}

// counts appends one cell per tally, each after a comma, empty when zero
// (not measured).
func counts(b []byte, ns ...int) []byte {
	for _, n := range ns {
		b = append(b, ',')
		if n != 0 {
			b = strconv.AppendInt(b, int64(n), 10)
		}
	}
	return b
}

// eventCount appends a tally after a comma on event rows only, where a
// zero is a real measurement (an idle window), not "not measured".
func eventCount(b []byte, kind string, n int) []byte {
	b = append(b, ',')
	if kind != "event" {
		return b
	}
	return strconv.AppendInt(b, int64(n), 10)
}

// WriteCSV writes buffered rows as CSV with a header line. Cells never
// contain commas or quotes, so no quoting is required.
func WriteCSV(w io.Writer, rows []Row) error {
	return StreamCSV(w, func(yield func(Row, error) bool) {
		for _, r := range rows {
			if !yield(r, nil) {
				return
			}
		}
	})
}

// StreamCSV encodes a row sequence — typically Stream's result — as CSV
// with a header line, row by row, without buffering the grid: one buffer
// is reused for every row, and each row is one Write. It stops at (and
// returns) the sequence's first error, so a canceled or failed run
// surfaces through the encoder.
func StreamCSV(w io.Writer, rows iter.Seq2[Row, error]) error {
	b := append([]byte(strings.Join(Header(), ",")), '\n')
	if _, err := w.Write(b); err != nil {
		return err
	}
	for r, err := range rows {
		if err != nil {
			return err
		}
		b = append(r.appendCells(b[:0]), '\n')
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}
