package serve

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"icsdetect/internal/core"
	"icsdetect/internal/engine"
)

// statsResponse is the /stats JSON document: cumulative counters only —
// engine-wide, per shard, the daemon's own and per subscriber — plus the
// seconds since the engine started. Rates are the client's computation over
// two scrapes (Δpackages / Δelapsed_seconds), so any number of scrapers can
// poll without disturbing each other's windows.
type statsResponse struct {
	// Lifetime aggregates the engine counters since start.
	Lifetime engine.Stats `json:"lifetime"`
	// ElapsedSeconds is Lifetime.Elapsed in seconds.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// Shards is the per-shard detail (queue depths are point-in-time).
	Shards []engine.ShardStats `json:"shards"`
	// Server is the daemon's connection/admission/subscriber counters.
	Server ServerStats `json:"server"`
	// Subscribers is the per-subscriber detail: queue depth (frames
	// pending), capacity and drops, point-in-time.
	Subscribers []SubscriberStats `json:"subscribers"`
}

// Handler returns the ops endpoint: GET /healthz, GET /stats (JSON, see
// statsResponse), POST /swap?model=NAME&path=FILE (hot-swap from an
// icstrain -checkpoint snapshot on disk, or from a snapshot in the request
// body when no path is given).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/swap", s.handleSwap)
	return mux
}

// ListenHTTP binds the ops endpoint and serves it until Shutdown.
func (s *Server) ListenHTTP(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("serve: listen http: %w", err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return "", fmt.Errorf("serve: server is shut down")
	}
	s.listeners = append(s.listeners, ln)
	s.acceptWG.Add(1)
	s.mu.Unlock()
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer s.acceptWG.Done()
		srv.Serve(ln)
		srv.Close()
	}()
	return ln.Addr().String(), nil
}

// handleStats serves the cumulative metrics snapshot; it keeps no state
// between scrapes.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.eng.Stats()
	resp := statsResponse{
		Lifetime:       st,
		ElapsedSeconds: st.Elapsed.Seconds(),
		Shards:         s.eng.ShardStats(),
		Server:         s.Stats(),
		Subscribers:    s.SubscriberStats(),
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}

// handleSwap hot-swaps a model from a framework snapshot.
func (s *Server) handleSwap(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	name := r.URL.Query().Get("model")
	var fw *core.Framework
	var err error
	if path := r.URL.Query().Get("path"); path != "" {
		var f *os.File
		if f, err = os.Open(path); err == nil {
			fw, err = core.Load(f)
			f.Close()
		}
	} else {
		fw, err = core.Load(r.Body)
	}
	if err != nil {
		http.Error(w, fmt.Sprintf("load framework: %v", err), http.StatusBadRequest)
		return
	}
	if err := s.SwapModel(name, fw); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fmt.Fprintf(w, "swapped %s to %s\n", nameOrDefault(name, s.def.name), fw.Fingerprint())
}

func nameOrDefault(name, def string) string {
	if name == "" {
		return def
	}
	return name
}
