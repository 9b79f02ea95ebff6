package shard

import (
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"uagpnm/internal/graph"
	"uagpnm/internal/obs"
	"uagpnm/internal/srvutil"
	"uagpnm/internal/workpool"
)

// Server is the worker side of the shard protocol: the state one
// cmd/gpnm-shard process holds for one coordinator, behind the HTTP
// handler the RPC client speaks to (JSON requests; the bulk answers are
// the word streams of wire.go).
//
// A worker holds its partitions and nothing else: the induced subgraphs
// of the partitions it owns, kept in sync from the coordinator's op
// stream, and their intra SLen engines (the superlinear state sharding
// exists to spread), served through an embedded Local shard so the
// engine-maintenance logic is written exactly once. Every op it does not
// own it skips; the affected balls of a batch are the coordinator's,
// computed from the data graph it owns.
//
// One worker serves one coordinator at a time: /build resets all state
// unconditionally, so a fresh coordinator simply claims the worker.
type Server struct {
	mu sync.RWMutex // build/ops exclusive; rows shared

	cfg   Config
	index int                  // this worker's position in the coordinator's shard table
	built bool                 // a /build has claimed the worker
	subs  map[int]*graph.Graph // owned partitions' subgraphs
	local *Local               // the intra engines over subs

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
	s := &Server{subs: make(map[int]*graph.Graph), obs: obs.Default}
	s.local = NewLocal(s.subOf)
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

// subOf is the subgraph accessor the embedded Local shard reads through.
func (s *Server) subOf(part int) *graph.Graph { return s.subs[part] }

// Handler returns the worker's endpoint table:
//
//	GET  /healthz   liveness + owned-partition count + op-stream epoch
//	POST /build     reset + build from coordinator snapshots
//	POST /rebuild   build additional partitions on top of existing state
//	POST /horizon   widen every intra engine to a new hop cap
//	POST /rows      full-horizon intra rows, any number in one call
//	POST /ops       apply one ordered, epoch-fenced op batch; answers
//	                the per-op affected sets and the piggybacked warm
//	                rows from the post-apply state (one word for a row
//	                the client holds and the batch did not move)
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
	parts := len(s.subs)
	idx := s.index
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
	s.cfg = req.Config
	s.index = req.Index
	s.built = true
	s.subs = make(map[int]*graph.Graph, len(req.Parts))
	owned := make([]int, 0, len(req.Parts))
	for _, snap := range req.Parts {
		s.subs[snap.Part] = snap.Materialise()
		owned = append(owned, snap.Part)
	}
	s.local = NewLocal(s.subOf)
	_ = s.local.Build(req.Config, req.Index, owned, nil) // in-process: never errors
	// The snapshots reflect every flush up to the coordinator's fence:
	// a replayed /ops at that epoch must answer empty sets, not apply.
	s.lastEpoch, s.lastAff = req.Config.Epoch, nil
	srvutil.WriteJSON(w, http.StatusOK, map[string]interface{}{"ok": true, "parts": len(s.subs)})
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
	s.cfg = req.Config
	s.index = req.Index
	added := make([]int, 0, len(req.Parts))
	for _, snap := range req.Parts {
		s.subs[snap.Part] = snap.Materialise()
		added = append(added, snap.Part)
	}
	_ = s.local.Build(req.Config, req.Index, added, nil) // in-process: never errors
	srvutil.WriteJSON(w, http.StatusOK, map[string]interface{}{"ok": true, "parts": len(s.subs)})
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
	if s.cfg.Horizon != 0 && req.K > s.cfg.Horizon {
		s.cfg.Horizon = req.K
		_ = s.local.EnsureHorizon(req.K) // in-process: never errors
	}
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
	// Epoch fence (0 = unfenced legacy stream). A flush at or below the
	// fenced epoch was already absorbed — through an earlier delivery
	// whose response was lost, through a fenced build whose snapshots
	// contained it, or (below the fence) before a newer flush — so answer
	// what we answered then when that is still on record, and empty sets
	// otherwise: the coordinator's failover path compensates by dirtying
	// every reassigned partition's bridge anchors conservatively.
	if req.Epoch != 0 && req.Epoch <= s.lastEpoch {
		if req.Epoch == s.lastEpoch && s.lastAff != nil && len(s.lastAff) == len(req.Ops) {
			respond(s.lastAff, true)
			return
		}
		respond(make([][]uint32, len(req.Ops)), false)
		return
	}
	aff := make([][]uint32, len(req.Ops))
	for i, op := range req.Ops {
		var err error
		if aff[i], err = s.applyOp(op); err != nil {
			srvutil.WriteError(w, http.StatusConflict, "op %d (%v): %v", i, op.Kind, err)
			return
		}
	}
	if req.Epoch != 0 {
		s.lastEpoch, s.lastAff = req.Epoch, aff
	}
	s.obs.Counter("gpnm_worker_ops_total").Add(uint64(len(req.Ops)))
	respond(aff, true)
}

// applyOp mirrors one op this worker owns into the partition subgraph
// and hands it to the embedded Local shard — the same
// graph-first-engine-second order the coordinator uses, and the same
// engine-maintenance code path (Local.ApplyOp). Every other op is
// skipped: the coordinator's graph already holds it. The subgraph
// refusing an op is divergence from the coordinator and fails the flush
// before the engine is touched.
func (s *Server) applyOp(op Op) ([]uint32, error) {
	if op.Kind < OpEdgeInsert || op.Kind > OpNodeDelete {
		return nil, fmt.Errorf("unknown op kind %d", op.Kind)
	}
	if op.Shard != s.index || op.Part < 0 {
		return nil, nil
	}
	sub := s.subs[op.Part]
	if op.Kind != OpNodeInsert && !s.local.Owns(op.Part) {
		return nil, fmt.Errorf("partition %d not owned/built", op.Part)
	}
	switch op.Kind {
	case OpEdgeInsert:
		if !sub.AddEdge(op.LFrom, op.LTo) {
			return nil, fmt.Errorf("partition %d rejected edge insert %d->%d", op.Part, op.LFrom, op.LTo)
		}
	case OpEdgeDelete:
		if !sub.RemoveEdge(op.LFrom, op.LTo) {
			return nil, fmt.Errorf("partition %d rejected edge delete %d->%d", op.Part, op.LFrom, op.LTo)
		}
	case OpNodeInsert:
		if sub == nil {
			// A node insert founded a new partition assigned to us;
			// Local.ApplyOp builds its engine from this fresh subgraph.
			sub = graph.New(nil)
			s.subs[op.Part] = sub
		}
		if local := sub.AddNodeLabelIDs(); local != op.Local {
			return nil, fmt.Errorf("partition %d assigned local id %d, coordinator expected %d", op.Part, local, op.Local)
		}
	case OpNodeDelete:
		// Local.ApplyOp replays op.RemovedLocal against the engine; the
		// mirror removal here yields the same edge set by construction.
		if _, ok := sub.RemoveNode(op.Local); !ok {
			return nil, fmt.Errorf("partition %d rejected node delete %d", op.Part, op.Local)
		}
	}
	return s.local.ApplyOp(op), nil
}
