package api

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"uagpnm/internal/graph"
	"uagpnm/internal/hub"
	"uagpnm/internal/obs"
	"uagpnm/internal/pattern"
	"uagpnm/internal/shard"
	"uagpnm/internal/srvutil"
	"uagpnm/internal/updates"
	"uagpnm/internal/version"
)

// ServerConfig parameterises the HTTP front end.
type ServerConfig struct {
	// PollTimeout caps the delta long-poll wait (and the ?timeout=
	// override); 0 means 30s.
	PollTimeout time.Duration
	// OnSubstrateLoss, when set, is called exactly once the first time
	// the hub reports a lost substrate. cmd/gpnm-serve uses it to start
	// a graceful drain: in-flight long-polls have already been woken by
	// the hub, handlers answer 503 substrate_lost, and the process can
	// exit for its supervisor to restart into a clean build.
	OnSubstrateLoss func(error)
}

// Server exposes one standing-query hub over the versioned HTTP/JSON
// protocol. Every handler is a thin adapter: wire parsing and rendering
// here, all matching semantics in the hub (safe for concurrent
// handlers by construction).
type Server struct {
	hub         *hub.Hub
	pollTimeout time.Duration
	onLoss      func(error)
	lossOnce    sync.Once
	start       time.Time // process-facing uptime origin for /v1/healthz
}

// NewServer wraps h with the HTTP front end.
func NewServer(h *hub.Hub, cfg ServerConfig) *Server {
	if cfg.PollTimeout <= 0 {
		cfg.PollTimeout = 30 * time.Second
	}
	return &Server{hub: h, pollTimeout: cfg.PollTimeout, onLoss: cfg.OnSubstrateLoss, start: time.Now()}
}

// Routes wires the endpoint table:
//
//	GET    /v1/healthz                liveness + hub stats (200 {"recovering":true} during a
//	                                  shard failover, 503 once the substrate is terminally lost)
//	POST   /v1/patterns               register a pattern (DSL or typed graph), returns id + initial result
//	GET    /v1/patterns/{id}          current (BGS-projected) result of one standing query
//	GET    /v1/patterns/{id}/snapshot typed pattern + raw simulation images + seq (the client SDK's Snapshot)
//	DELETE /v1/patterns/{id}          unregister
//	GET    /v1/patterns/{id}/deltas   long-poll changes since ?since=SEQ
//	GET    /v1/patterns/{id}/stats    per-pattern pass stats of the last amendment
//	POST   /v1/apply                  apply one typed update batch
//	GET    /v1/metrics                hub telemetry, Prometheus text exposition
//	GET    /v1/trace                  last-N per-batch phase traces (?n= caps, default all retained)
//
// GET /metrics, the conventional scrape path, serves the same registry.
func (s *Server) Routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	mux.HandleFunc("POST /v1/patterns", s.handleRegister)
	mux.HandleFunc("GET /v1/patterns/{id}", s.handleResult)
	mux.HandleFunc("DELETE /v1/patterns/{id}", s.handleUnregister)
	mux.HandleFunc("GET /v1/patterns/{id}/deltas", s.handleDeltas)
	mux.HandleFunc("GET /v1/patterns/{id}/snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /v1/patterns/{id}/stats", s.handleStats)
	mux.HandleFunc("POST /v1/apply", s.handleApply)
	mux.Handle("GET /v1/metrics", s.hub.Metrics()) // the exposition is the registry itself
	mux.Handle("GET /metrics", s.hub.Metrics())
	mux.HandleFunc("GET /v1/trace", s.handleTrace)
	return mux
}

// writeError renders the uniform error envelope.
func writeError(w http.ResponseWriter, status int, code, format string, args ...interface{}) {
	srvutil.WriteJSON(w, status, ErrorBody{Error: fmt.Sprintf(format, args...), Code: code})
}

// decode parses the JSON request body, answering malformed input with
// the full error envelope (srvutil.Decode predates the code field and
// would drop it — every non-2xx from this package must carry one).
func decode(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	if err := srvutil.DecodeBody(r.Body, v); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "bad JSON body: %v", err)
		return false
	}
	return true
}

// hubError maps a hub error onto status + code, noting substrate loss.
func (s *Server) hubError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, hub.ErrUnknownPattern):
		writeError(w, http.StatusNotFound, CodeUnknownPattern, "%v", err)
	case errors.Is(err, shard.ErrSubstrateLost):
		s.noteLoss(err)
		writeError(w, http.StatusServiceUnavailable, CodeSubstrateLost, "%v", err)
	default:
		writeError(w, http.StatusBadRequest, CodeBadBatch, "%v", err)
	}
}

// noteLoss fires the substrate-loss callback exactly once.
func (s *Server) noteLoss(err error) {
	s.lossOnce.Do(func() {
		if s.onLoss != nil {
			s.onLoss(err)
		}
	})
}

func patternID(r *http.Request) (hub.PatternID, error) {
	raw := r.PathValue("id")
	id, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad pattern id %q", raw)
	}
	return hub.PatternID(id), nil
}

// guardRecovering answers mutating requests with 503
// substrate_recovering while a shard failover is repairing the
// substrate inside an in-flight batch. Without the guard such requests
// would just queue on the hub's lock behind the repair; failing fast
// with Retry-After keeps handler goroutines free and tells clients the
// process is degraded, not dead. Read endpoints are not guarded — they
// block briefly and then serve correct post-recovery state.
func (s *Server) guardRecovering(w http.ResponseWriter) bool {
	recovering, _ := s.hub.Status()
	if !recovering {
		return false
	}
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, CodeSubstrateRecovering,
		"substrate recovering from a shard loss; retry shortly")
	return true
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	// Degraded-not-dead fast path: during a failover the hub's lock is
	// held by the recovering batch, so the detailed stats below would
	// block. Answer 200 immediately — a load balancer must keep routing
	// to a process that is about to finish repairing itself.
	if recovering, recovered := s.hub.Status(); recovering {
		srvutil.WriteJSON(w, http.StatusOK, HealthBody{
			OK: true, Recovering: true, Recovered: recovered,
		})
		return
	}
	body := HealthBody{
		OK:            true,
		Seq:           s.hub.Seq(),
		Patterns:      len(s.hub.Patterns()),
		Version:       version.Version,
		Commit:        version.CommitOrEmbedded(),
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
	_, body.Recovered = s.hub.Status()
	if last := s.hub.LastBatch(); last.Seq > 0 {
		lb := EncodeBatchStats(last)
		body.LastBatch = &lb
	}
	st := s.hub.GraphStats() // synchronised: /v1/apply may be mutating the graph
	body.Nodes, body.Edges, body.Labels = st.Nodes, st.Edges, st.Labels
	status := http.StatusOK
	if err := s.hub.Err(); err != nil {
		// A poisoned hub must fail its health checks so load balancers
		// stop routing to it while the drain completes.
		s.noteLoss(err)
		body.OK, body.Lost = false, err.Error()
		status = http.StatusServiceUnavailable
	}
	srvutil.WriteJSON(w, status, body)
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	if s.guardRecovering(w) {
		return
	}
	var req RegisterRequest
	if !decode(w, r, &req) {
		return
	}
	var id hub.PatternID
	var err error
	switch {
	case req.Pattern != "" && req.Graph != nil:
		writeError(w, http.StatusBadRequest, CodeBadRequest, "set either \"pattern\" or \"graph\", not both")
		return
	case req.Graph != nil:
		// Typed path: materialise against the hub's label table under
		// its lock (label interning must not race a concurrent batch).
		id, err = s.hub.RegisterFunc(func(labels *graph.Labels) (*pattern.Graph, error) {
			return req.Graph.Materialise(labels)
		})
	default:
		id, err = s.hub.RegisterScript(strings.NewReader(req.Pattern))
	}
	if err != nil {
		if errors.Is(err, shard.ErrSubstrateLost) {
			s.hubError(w, err)
			return
		}
		writeError(w, http.StatusBadRequest, CodeBadPattern, "%v", err)
		return
	}
	body, err := s.renderResult(id)
	if err != nil {
		s.hubError(w, err)
		return
	}
	srvutil.WriteJSON(w, http.StatusOK, body)
}

// renderResult renders one standing query's current state. One
// consistent snapshot: pattern, match and seq must describe the same
// epoch even when a batch lands mid-render.
func (s *Server) renderResult(id hub.PatternID) (*ResultBody, error) {
	p, m, seq, err := s.hub.Snapshot(id)
	if err != nil {
		return nil, err
	}
	body := &ResultBody{ID: uint64(id), Seq: seq, Total: m.Total(), Nodes: []ResultNode{}}
	p.Nodes(func(u pattern.NodeID) {
		body.Nodes = append(body.Nodes, ResultNode{
			Node:    u,
			Name:    p.Name(u),
			Label:   p.LabelName(u),
			Matches: setSlice(m.Nodes(u)),
		})
	})
	return body, nil
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id, err := patternID(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	body, err := s.renderResult(id)
	if err != nil {
		s.hubError(w, err)
		return
	}
	srvutil.WriteJSON(w, http.StatusOK, body)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	id, err := patternID(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	p, m, seq, err := s.hub.Snapshot(id)
	if err != nil {
		s.hubError(w, err)
		return
	}
	body := SnapshotBody{
		ID: uint64(id), Seq: seq, Total: m.Total(),
		Pattern: EncodePattern(p), Nodes: []SnapshotNode{},
	}
	p.Nodes(func(u pattern.NodeID) {
		body.Nodes = append(body.Nodes, SnapshotNode{Node: u, Sim: setSlice(m.SimulationSet(u))})
	})
	srvutil.WriteJSON(w, http.StatusOK, body)
}

func (s *Server) handleUnregister(w http.ResponseWriter, r *http.Request) {
	if s.guardRecovering(w) {
		return
	}
	id, err := patternID(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	if err := s.hub.UnregisterErr(id); err != nil {
		s.hubError(w, err)
		return
	}
	srvutil.WriteJSON(w, http.StatusOK, UnregisterResponse{OK: true})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	id, err := patternID(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	st, err := s.hub.PatternStatsErr(id)
	if err != nil {
		s.hubError(w, err)
		return
	}
	srvutil.WriteJSON(w, http.StatusOK, EncodeQueryStats(id, st))
}

// handleTrace serves the retained per-batch phase traces, oldest first;
// ?n= keeps only the most recent n.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	traces := s.hub.Metrics().Traces()
	if traces == nil {
		traces = []obs.Trace{} // non-null JSON array, like every list in this package
	}
	if raw := r.URL.Query().Get("n"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, CodeBadRequest, "bad n %q", raw)
			return
		}
		if n < len(traces) {
			traces = traces[len(traces)-n:]
		}
	}
	srvutil.WriteJSON(w, http.StatusOK, TracesResponse{Traces: traces})
}

func (s *Server) handleApply(w http.ResponseWriter, r *http.Request) {
	if s.guardRecovering(w) {
		return
	}
	var req ApplyRequest
	if !decode(w, r, &req) {
		return
	}
	var batch hub.Batch
	var err error
	if batch.D, err = DecodeUpdates(req.Updates); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadBatch, "updates: %v", err)
		return
	}
	for _, u := range batch.D {
		if !u.Kind.IsData() {
			writeError(w, http.StatusBadRequest, CodeBadBatch, "pattern update %v under \"updates\"; put it under \"patterns\"", u)
			return
		}
	}
	for rawID, ws := range req.Patterns {
		id, err := strconv.ParseUint(rawID, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeBadRequest, "bad pattern id %q", rawID)
			return
		}
		us, err := DecodeUpdates(ws)
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeBadBatch, "pattern %s: %v", rawID, err)
			return
		}
		for _, u := range us {
			if u.Kind.IsData() {
				writeError(w, http.StatusBadRequest, CodeBadBatch, "pattern %s: data update %v; put it under \"updates\"", rawID, u)
				return
			}
		}
		if batch.P == nil {
			batch.P = make(map[hub.PatternID][]updates.Update)
		}
		batch.P[hub.PatternID(id)] = us
	}
	deltas, stats, err := s.hub.ApplyBatch(batch)
	if err != nil {
		s.hubError(w, err)
		return
	}
	// Report THIS batch's seq and cost: a concurrent /v1/apply may already
	// have advanced Seq()/LastBatch() past them.
	resp := ApplyResponse{Seq: stats.Seq, Deltas: []DeltaBody{}, Stats: EncodeBatchStats(stats)}
	for _, d := range deltas {
		resp.Deltas = append(resp.Deltas, EncodeDelta(d))
	}
	srvutil.WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleDeltas(w http.ResponseWriter, r *http.Request) {
	id, err := patternID(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	since := uint64(0)
	if raw := r.URL.Query().Get("since"); raw != "" {
		since, err = strconv.ParseUint(raw, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeBadRequest, "bad since %q", raw)
			return
		}
	}
	timeout := s.pollTimeout
	if raw := r.URL.Query().Get("timeout"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d <= 0 {
			writeError(w, http.StatusBadRequest, CodeBadRequest, "bad timeout %q", raw)
			return
		}
		if d < timeout {
			timeout = d
		}
	}

	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	ds, resync, err := s.hub.WaitDeltas(ctx, id, since)
	switch {
	case errors.Is(err, hub.ErrUnknownPattern):
		writeError(w, http.StatusNotFound, CodeUnknownPattern, "unknown pattern %d", id)
		return
	case err != nil && errors.Is(err, shard.ErrSubstrateLost):
		// The hub woke this poll because the substrate died: answer with
		// the machine-readable loss so subscribers stop polling, and let
		// the drain (OnSubstrateLoss) reclaim the connection.
		s.hubError(w, err)
		return
	case err != nil:
		// Timeout or client cancellation: an empty poll, not a failure.
		srvutil.WriteJSON(w, http.StatusOK, DeltasResponse{Seq: since, Deltas: []DeltaBody{}})
		return
	}
	resp := DeltasResponse{Seq: since, Resync: resync, Deltas: []DeltaBody{}}
	for _, d := range ds {
		resp.Deltas = append(resp.Deltas, EncodeDelta(d))
		if d.Seq > resp.Seq {
			resp.Seq = d.Seq
		}
	}
	srvutil.WriteJSON(w, http.StatusOK, resp)
}
