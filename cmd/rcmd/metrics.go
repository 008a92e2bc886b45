package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"rcm/obs"
)

// metricsServer is the -metrics-addr HTTP listener: the process's
// observability surface, served without touching the DHT's UDP plane.
//
//	/debug/vars    the node (or cluster) snapshot as JSON (counters,
//	               gauges, histogram percentiles and buckets)
//	/metrics       the same snapshot as sorted text lines
//	/debug/pprof/  live CPU/heap/goroutine profiles
type metricsServer struct {
	srv *http.Server
	ln  net.Listener
}

// startMetricsServer binds addr and serves snapshots from the given
// provider. The provider is called once per request, so every response
// is a fresh, internally-consistent reading.
func startMetricsServer(addr string, snapshot func() obs.Snapshot, out io.Writer) (*metricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("-metrics-addr %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = snapshot().WriteJSON(w)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = snapshot().WriteText(w)
	})
	// pprof registers on the default mux; re-home its handlers on ours
	// so nothing else in the process leaks onto this listener.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	// ReadHeaderTimeout: a client that opens a connection and never sends
	// its request must not hold a goroutine and a descriptor forever.
	ms := &metricsServer{srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}, ln: ln}
	go func() { _ = ms.srv.Serve(ln) }()
	fmt.Fprintf(out, "rcmd: metrics on http://%s/debug/vars (text at /metrics, profiles at /debug/pprof/)\n", ln.Addr())
	return ms, nil
}

// Addr returns the bound address (useful with -metrics-addr :0).
func (ms *metricsServer) Addr() string { return ms.ln.Addr().String() }

// Close stops the listener and in-flight handlers.
func (ms *metricsServer) Close() error { return ms.srv.Close() }
