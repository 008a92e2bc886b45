package obs

import (
	"fmt"
	"io"
	"strconv"
)

// Snapshot is a point-in-time reading of a subsystem's counters, gauges
// and histograms — the one shape every metrics document (rcmd's
// /debug/vars, /metrics and stats command, the cluster-smoke artifact)
// is rendered from. Sections render in the order given; producers list
// names sorted (node.Metrics.Snapshot does), so output is deterministic.
type Snapshot struct {
	Counters []NamedValue
	Gauges   []NamedValue
	Hists    []NamedHist
}

// NamedValue is one counter or gauge reading.
type NamedValue struct {
	Name  string
	Value int64
}

// NamedHist is one histogram snapshot.
type NamedHist struct {
	Name string
	Hist Histogram
}

// WriteJSON renders the snapshot as a /debug/vars-style JSON object
// with three sections, keys in the snapshot's order:
//
//	{"counters":{...},"gauges":{...},"histograms":{...}}
func (s Snapshot) WriteJSON(w io.Writer) error {
	buf := make([]byte, 0, 256)
	buf = append(buf, `{"counters":{`...)
	for i, c := range s.Counters {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendQuoted(buf, c.Name)
		buf = append(buf, ':')
		buf = appendInt(buf, c.Value)
	}
	buf = append(buf, `},"gauges":{`...)
	for i, g := range s.Gauges {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendQuoted(buf, g.Name)
		buf = append(buf, ':')
		buf = appendInt(buf, g.Value)
	}
	buf = append(buf, `},"histograms":{`...)
	for i, h := range s.Hists {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendQuoted(buf, h.Name)
		buf = append(buf, ':')
		buf = h.Hist.appendJSON(buf)
	}
	buf = append(buf, "}}\n"...)
	_, err := w.Write(buf)
	return err
}

// WriteText renders the snapshot as "name value" lines followed by one
// summary line per histogram — the rcmd stats format.
func (s Snapshot) WriteText(w io.Writer) error {
	for _, c := range s.Counters {
		if _, err := fmt.Fprintf(w, "%-32s %d\n", c.Name, c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if _, err := fmt.Fprintf(w, "%-32s %d\n", g.Name, g.Value); err != nil {
			return err
		}
	}
	for _, h := range s.Hists {
		if _, err := fmt.Fprintf(w, "%-32s %s\n", h.Name, h.Hist.String()); err != nil {
			return err
		}
	}
	return nil
}

func appendInt(buf []byte, v int64) []byte {
	return strconv.AppendInt(buf, v, 10)
}

// appendQuoted quotes a metric name. Names are plain identifiers
// (letters, digits, '_', '.', '/'), so byte-level quoting suffices.
func appendQuoted(buf []byte, s string) []byte {
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}
