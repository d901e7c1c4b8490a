package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"
)

// Server exposes one registry over HTTP:
//
//	/metrics       Prometheus text exposition
//	/debug/vars    JSON snapshot (registry + runtime memory stats)
//	/debug/pprof/  the standard net/http/pprof surface
//
// It binds its own mux, so importing this package never touches
// http.DefaultServeMux.
type Server struct {
	// Addr is the actual listen address (useful with ":0").
	Addr string
	srv  *http.Server
	ln   net.Listener
}

// Serve starts serving reg on addr in a background goroutine. The
// registry may gain metrics after the server starts; every scrape reads
// it live.
func Serve(addr string, reg *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		Addr: ln.Addr().String(),
		srv:  &http.Server{Handler: Handler(reg), ReadHeaderTimeout: 5 * time.Second},
		ln:   ln,
	}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Handler returns the telemetry surface (/metrics, /debug/vars,
// /debug/pprof/) as a mountable http.Handler, so services with their own
// mux (cmd/rvnegtestd) can expose the registry next to their API instead
// of binding a second port.
func Handler(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		payload := struct {
			Campaign Snapshot `json:"campaign"`
			MemStats struct {
				Alloc      uint64 `json:"alloc"`
				TotalAlloc uint64 `json:"total_alloc"`
				Sys        uint64 `json:"sys"`
				NumGC      uint32 `json:"num_gc"`
			} `json:"memstats"`
		}{Campaign: reg.TakeSnapshot()}
		payload.MemStats.Alloc = ms.Alloc
		payload.MemStats.TotalAlloc = ms.TotalAlloc
		payload.MemStats.Sys = ms.Sys
		payload.MemStats.NumGC = ms.NumGC
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(payload)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Close stops the server and releases the listener.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
