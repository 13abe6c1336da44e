package telemetry

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"time"
)

// Server is the opt-in introspection endpoint: /metrics (Prometheus text),
// /statusz (plan topology + live edge stats, JSON), /epochz (checkpoint
// timeline, JSON), and net/http/pprof under /debug/pprof/. It binds eagerly
// (":0" works for tests) and serves in the background until Close.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts the introspection server for t on addr.
func Serve(addr string, t *Telemetry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		t.Registry.WritePrometheus(w)
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		st := t.Status()
		if st == nil {
			// No installed status closure: fall back to what the registry
			// knows (node identities + live edges).
			ids, names := t.Registry.Nodes()
			nodes := make([]map[string]any, len(ids))
			for i := range ids {
				nodes[i] = map[string]any{"id": ids[i], "op": names[i]}
			}
			st = map[string]any{"nodes": nodes, "edges": t.Registry.EdgeSnapshots(), "globals": t.Registry.Globals()}
		}
		writeJSON(w, st)
	})
	mux.HandleFunc("/epochz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, groupEpochs(t.Timeline.Events()))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s := &Server{ln: ln, srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server.
func (s *Server) Close() error { return s.srv.Close() }

func writeJSON(w http.ResponseWriter, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// epochView is /epochz's unit: one epoch's lifecycle events in order.
type epochView struct {
	Epoch  int64        `json:"epoch"`
	Events []EpochEvent `json:"events"`
}

// groupEpochs buckets timeline events by epoch, ascending.
func groupEpochs(evs []EpochEvent) []epochView {
	byEpoch := map[int64][]EpochEvent{}
	for _, e := range evs {
		byEpoch[e.Epoch] = append(byEpoch[e.Epoch], e)
	}
	epochs := make([]int64, 0, len(byEpoch))
	for e := range byEpoch {
		epochs = append(epochs, e)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	out := make([]epochView, 0, len(epochs))
	for _, e := range epochs {
		out = append(out, epochView{Epoch: e, Events: byEpoch[e]})
	}
	return out
}
