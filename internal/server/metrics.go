package server

import "net/http"

// handleMetrics renders the backend's metric registry in the Prometheus
// text exposition format (version 0.0.4). Gauges and lifecycle counters read
// backend state at exposition time; histograms (run wall time, queue wait,
// decision events per run, per-job allocations) are observed by the pool as
// runs move. The registry is hand-rolled (internal/obs) to keep the daemon
// dependency-free.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.b.Metrics().WritePrometheus(w)
}
