package exp

import (
	"fmt"
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

// fields returns the row's cells in Header order. NaN and ±Inf become
// empty cells; floats carry full round-trip precision so golden files are
// exact.
func (r Row) fields() []string {
	return []string{
		r.Plan, r.Kind, r.Geometry, r.System, r.Protocol,
		strconv.Itoa(r.Bits), num(r.Q),
		num(r.AnalyticRoutability), num(r.AnalyticFailedPct), num(r.AnalyticReach),
		num(r.SimRoutability), num(r.SimFailedPct), num(r.SimStdErr),
		num(r.SimMeanHops), num(r.SimAlive),
		count(r.SimPairs), count(r.SimTrials),
		r.Scenario, num(r.Time), eventCount(r.Kind, r.EventStarted), num(r.EventSuccess),
		num(r.EventMeanHops), num(r.EventMeanLatency),
		num(r.EventMsgsNodeS), num(r.EventMaintNodeS), num(r.EventOnline),
		num(r.EventHopsP50), num(r.EventHopsP99), num(r.EventHopsP999),
		num(r.EventLatencyP50), num(r.EventLatencyP99), num(r.EventLatencyP999),
		eventCount(r.Kind, r.EventReplicas), num(r.EventRepairNodeS),
	}
}

// num formats a float for the flat encodings: shortest round-trip decimal,
// empty for non-finite values (NaN marks "not measured").
func num(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return ""
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// count formats a tally, empty when zero (not measured).
func count(n int) string {
	if n == 0 {
		return ""
	}
	return strconv.Itoa(n)
}

// eventCount renders event_started only on event rows, where a zero is a
// real measurement (an idle window), not "not measured".
func eventCount(kind string, n int) string {
	if kind != "event" {
		return ""
	}
	return strconv.Itoa(n)
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
// with a header line, row by row, without buffering the grid. It stops at
// (and returns) the sequence's first error, so a canceled or failed run
// surfaces through the encoder.
func StreamCSV(w io.Writer, rows iter.Seq2[Row, error]) error {
	if _, err := io.WriteString(w, strings.Join(Header(), ",")+"\n"); err != nil {
		return err
	}
	for r, err := range rows {
		if err != nil {
			return err
		}
		if _, err := io.WriteString(w, strings.Join(r.fields(), ",")+"\n"); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON streams rows as a JSON array of objects with a fixed key
// order. Unmeasured (NaN/Inf) numbers encode as null.
func WriteJSON(w io.Writer, rows []Row) error {
	header := Header()
	var b strings.Builder
	b.WriteString("[\n")
	for i, r := range rows {
		if i > 0 {
			b.WriteString(",\n")
		}
		b.WriteString("  {")
		for j, cellStr := range r.fields() {
			if j > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%q: %s", header[j], jsonValue(header[j], cellStr))
		}
		b.WriteString("}")
	}
	b.WriteString("\n]\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// jsonValue renders a field by column name: identity columns are strings,
// everything else numeric (null when empty).
func jsonValue(name, cellStr string) string {
	switch name {
	case "plan", "kind", "geometry", "system", "protocol", "scenario":
		return strconv.Quote(cellStr)
	default:
		if cellStr == "" {
			return "null"
		}
		return cellStr
	}
}
