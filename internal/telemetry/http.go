package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
)

// Handler returns the admin-endpoint mux flymond mounts on its -admin
// listener:
//
//	/metrics       Prometheus text exposition of the full registry
//	/debug/events  the reconfiguration journal as JSON
//	/debug/pprof/  the standard Go profiler endpoints
//	/              a plain index of the above
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WriteText(w, r.Report().Families) // a failed write is the scraper hanging up
	})
	mux.HandleFunc("/debug/events", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			Total   uint64  `json:"total"`
			Dropped uint64  `json:"dropped"`
			Events  []Event `json:"events"`
		}{r.Journal.Total(), r.Journal.Dropped(), r.Journal.Events()})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		fmt.Fprint(w, "flymond admin endpoints:\n  /metrics\n  /debug/events\n  /debug/pprof/\n")
	})
	return mux
}
