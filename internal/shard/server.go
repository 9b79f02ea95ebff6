package shard

import (
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"uagpnm/internal/obs"
	"uagpnm/internal/srvutil"
	"uagpnm/internal/workpool"
)

// Server is the worker side of the shard protocol: the state one
// cmd/gpnm-shard process holds for one coordinator, behind the HTTP
// handler the RPC client speaks to (JSON requests; the bulk answers are
// the word streams of wire.go).
//
// A worker holds its partitions and nothing else, and holds them in a
// Local shard: the induced subgraphs of the partitions it owns, kept in
// sync from the coordinator's op stream, and their intra SLen engines
// (the superlinear state sharding exists to spread). The Server adds
// the HTTP surface, the lock and the epoch fence; every op goes through
// Local.ApplyOps, the same path the in-process §V plane takes. The
// affected balls of a batch are the coordinator's, computed from the
// data graph it owns.
//
// One worker serves one coordinator at a time: /build resets all state
// unconditionally, so a fresh coordinator simply claims the worker.
type Server struct {
	mu sync.RWMutex // build/ops exclusive; rows shared

	built bool   // a /build has claimed the worker
	local *Local // the owned partitions: subgraphs and intra engines

	// Op-stream fence: the highest epoch this worker's state reflects,
	// with the affected sets it answered for it (nil: none on record). A
	// /build adopts the coordinator's fence (the snapshots already
	// contain those ops); a re-sent /ops at or below the fenced epoch
	// answers lastAff — or empty sets for an older epoch, or one absorbed
	// via a fenced build — instead of re-applying. That idempotence is
	// what makes the coordinator's failover retry of an in-flight batch
	// safe.
	lastEpoch uint64
	lastAff   [][]uint32

	rowPool sync.Pool // *rowScratch

	// Worker-side telemetry: per-endpoint request counts and service
	// latency, plus the applied-op counter. Each gpnm-shard process owns
	// its own registry (the process-global default), served at /metrics,
	// so the coordinator's client-side RPC histograms can be compared
	// against the worker's server-side view to isolate transport cost.
	obs *obs.Registry
}

// NewServer returns an empty worker; /build initialises it.
func NewServer() *Server {
	s := &Server{local: NewLocal(), obs: obs.Default}
	s.rowPool.New = func() interface{} { return newRowScratch() }
	return s
}

// Metrics reports the worker's telemetry registry (also served at
// GET /metrics on the worker's own port).
func (s *Server) Metrics() *obs.Registry { return s.obs }

// instrument wraps one endpoint handler with the worker-side request
// counter and service-latency histogram for that endpoint.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		s.obs.Counter("gpnm_worker_requests_total", "endpoint", endpoint).Inc()
		s.obs.Histogram("gpnm_worker_request_seconds", "endpoint", endpoint).Observe(time.Since(start))
	}
}

// Handler returns the worker's endpoint table:
//
//	GET  /healthz   liveness + owned-partition count + op-stream epoch
//	POST /build     reset + build from coordinator snapshots
//	POST /rebuild   build additional partitions on top of existing state
//	POST /horizon   widen every intra engine to a new hop cap
//	POST /rows      full-horizon intra rows, any number in one call
//	POST /ops       apply one ordered op batch, fenced by an epoch ≥ 1;
//	                answers the per-op affected sets and the piggybacked
//	                warm rows from the post-apply state (one word for a
//	                row the client holds and the batch did not move)
//	GET  /metrics   worker-side telemetry, Prometheus text exposition
//
// /rows and /ops answer in the word format of wire.go;
// everything else, and every request and error, is JSON. /rows is the
// one row fetch — a first miss is a one-element call — and there is no
// point-distance endpoint: the client answers every ball from the
// cached full-horizon rows, which the engine's query patterns
// re-read many times per epoch anyway.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealth))
	mux.HandleFunc("POST /build", s.instrument("/build", s.handleBuild))
	mux.HandleFunc("POST /rebuild", s.instrument("/rebuild", s.handleRebuild))
	mux.HandleFunc("POST /horizon", s.instrument("/horizon", s.handleHorizon))
	mux.HandleFunc("POST /rows", s.instrument("/rows", s.handleRows))
	mux.HandleFunc("POST /ops", s.instrument("/ops", s.handleOps))
	mux.Handle("GET /metrics", s.obs)
	return mux
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	built := s.built
	parts := len(s.local.parts)
	idx := s.local.index
	epoch := s.lastEpoch
	s.mu.RUnlock()
	srvutil.WriteJSON(w, http.StatusOK, map[string]interface{}{
		"ok": true, "built": built, "parts": parts, "index": idx, "epoch": epoch,
	})
}

// buildRequest carries the partitions a worker is claimed with.
type buildRequest struct {
	Config Config     `json:"config"`
	Index  int        `json:"index"`
	Parts  []Snapshot `json:"parts"`
}

func (s *Server) handleBuild(w http.ResponseWriter, r *http.Request) {
	var req buildRequest
	if !srvutil.Decode(w, r, &req) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.built = true
	clear(s.local.parts)
	s.local.install(req.Config, req.Index, req.Parts)
	// The snapshots reflect every flush up to the coordinator's fence:
	// a replayed /ops at that epoch must answer empty sets, not apply.
	s.lastEpoch, s.lastAff = req.Config.Epoch, nil
	srvutil.WriteJSON(w, http.StatusOK, map[string]interface{}{"ok": true, "parts": len(s.local.parts)})
}

// rebuildRequest carries additional partitions for a built worker to
// absorb (the failover path); the fence and prior engines survive.
type rebuildRequest struct {
	Config Config     `json:"config"`
	Index  int        `json:"index"`
	Parts  []Snapshot `json:"parts"`
}

func (s *Server) handleRebuild(w http.ResponseWriter, r *http.Request) {
	var req rebuildRequest
	if !srvutil.Decode(w, r, &req) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.built {
		srvutil.WriteError(w, http.StatusConflict, "worker not built")
		return
	}
	s.local.install(req.Config, req.Index, req.Parts)
	srvutil.WriteJSON(w, http.StatusOK, map[string]interface{}{"ok": true, "parts": len(s.local.parts)})
}

func (s *Server) handleHorizon(w http.ResponseWriter, r *http.Request) {
	var req struct {
		K int `json:"k"`
	}
	if !srvutil.Decode(w, r, &req) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.local.EnsureHorizon(req.K) // in-process: never errors
	srvutil.WriteJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// writeWire answers one encoded word-stream body, its length declared
// so a severed connection reads as a short body, not a short answer.
func writeWire(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body) // a failed write is the client's transport error to report
}

// bulkRows answers many row requests against the current engine state,
// fanned across the worker pool (rows of distinct sources share
// nothing). A request the caller vouches for (held, nil on /rows) is
// answered unchanged instead of computed; a partition this worker has
// no engine for is answered not-owned. Callers hold at least the read
// lock.
func (s *Server) bulkRows(reqs []RowReq, held func(RowReq) bool) []rowAnswer {
	out := make([]rowAnswer, len(reqs))
	workpool.ForEach(len(reqs), func(i int) {
		rq := reqs[i]
		switch {
		case !s.local.Owns(rq.Part):
		case held != nil && held(rq):
			out[i].state = rowUnchanged
		default:
			sc := s.rowPool.Get().(*rowScratch)
			out[i] = rowAnswer{state: rowFull, row: s.local.row(rq, sc)}
			s.rowPool.Put(sc)
		}
	})
	s.obs.Counter("gpnm_worker_rows_total").Add(uint64(len(reqs)))
	return out
}

func (s *Server) handleRows(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Reqs []RowReq `json:"reqs"`
	}
	if !srvutil.Decode(w, r, &req) {
		return
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.built {
		srvutil.WriteError(w, http.StatusConflict, "worker not built")
		return
	}
	writeWire(w, encodeRows(s.bulkRows(req.Reqs, nil)))
}

// stillCurrent returns the predicate a flush's warm rows are answered
// unchanged under: the request says the client holds the row, and no
// affected set of this flush names its source. The engines' sets are
// exact — both endpoints of every pair whose distance moved — so such a
// row is word for word what the worker would compute. It returns nil
// (vouch for nothing) when no request claims a held row.
func stillCurrent(ops []Op, aff [][]uint32, warm []RowReq) func(RowReq) bool {
	if !slices.ContainsFunc(warm, func(rq RowReq) bool { return rq.Have }) {
		return nil
	}
	type source struct {
		part  int
		local uint32
	}
	moved := make(map[source]struct{})
	for i, op := range ops {
		for _, l := range aff[i] {
			moved[source{op.Part, l}] = struct{}{}
		}
	}
	return func(rq RowReq) bool {
		_, m := moved[source{rq.Part, rq.Src}]
		return rq.Have && !m
	}
}

func (s *Server) handleOps(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Epoch uint64   `json:"epoch"`
		Ops   []Op     `json:"ops"`
		Warm  []RowReq `json:"warm"`
	}
	if !srvutil.Decode(w, r, &req) {
		return
	}
	// Every flush is fenced: the coordinator's epochs start at 1.
	if req.Epoch == 0 {
		srvutil.WriteError(w, http.StatusBadRequest, "op flush without an epoch")
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.built {
		srvutil.WriteError(w, http.StatusConflict, "worker not built")
		return
	}
	// Warm rows are answered from the engines on every delivery — fence
	// replays included — because they describe post-apply state, which is
	// identical whether the ops applied now or on the lost first try.
	// Only the affected sets are part of the fence record, and only a
	// delivery that has this flush's sets (onRecord) may answer a held
	// row unchanged: with nothing on record every warm row goes out in
	// full.
	respond := func(aff [][]uint32, onRecord bool) {
		resp := opsResponse{aff: aff}
		if len(req.Warm) > 0 {
			var held func(RowReq) bool
			if onRecord {
				held = stillCurrent(req.Ops, aff, req.Warm)
			}
			resp.rows = s.bulkRows(req.Warm, held)
		}
		writeWire(w, encodeOpsResponse(resp))
	}
	// Epoch fence. A flush at or below the fenced epoch was already
	// absorbed — through an earlier delivery whose response was lost,
	// through a fenced build whose snapshots contained it, or (below the
	// fence) before a newer flush — so answer what we answered then when
	// that is still on record, and empty sets otherwise: the
	// coordinator's failover path compensates by dirtying every
	// reassigned partition's bridge anchors conservatively.
	if req.Epoch <= s.lastEpoch {
		if req.Epoch == s.lastEpoch && s.lastAff != nil && len(s.lastAff) == len(req.Ops) {
			respond(s.lastAff, true)
			return
		}
		respond(make([][]uint32, len(req.Ops)), false)
		return
	}
	aff, err := s.local.ApplyOps(req.Epoch, req.Ops, nil)
	if err != nil {
		srvutil.WriteError(w, http.StatusConflict, "%v", err)
		return
	}
	s.lastEpoch, s.lastAff = req.Epoch, aff
	s.obs.Counter("gpnm_worker_ops_total").Add(uint64(len(req.Ops)))
	respond(aff, true)
}
