package shard

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/obs"
	"uagpnm/internal/shortest"
	"uagpnm/internal/srvutil"
	"uagpnm/internal/workpool"
)

// Server is the worker side of the shard protocol: the state one
// cmd/gpnm-shard process holds for one coordinator, behind an HTTP/JSON
// handler the RPC client speaks to.
//
// The worker replicates two things from the coordinator's op stream:
// the induced subgraphs of the partitions it owns — whose intra SLen
// engines (the superlinear state sharding exists to spread) it serves
// through an embedded Local shard, so the engine-maintenance logic is
// written exactly once — and the full data-graph *adjacency* (linear,
// label-less), which lets the coordinator fan the batch's conservative
// affected-ball computation (ApplyDataBatch phases 1 and 4) across the
// shard fleet instead of running every ball itself.
//
// One worker serves one coordinator at a time: /build resets all state
// unconditionally, so a fresh coordinator simply claims the worker.
type Server struct {
	mu sync.RWMutex // build/ops exclusive; row/dist/affected shared

	cfg     Config
	index   int                  // this worker's position in the coordinator's shard table
	replica *graph.Graph         // full data-graph adjacency replica
	subs    map[int]*graph.Graph // owned partitions' subgraph replicas
	local   *Local               // the intra engines over subs

	// Op-stream fence: the highest epoch this worker's state reflects,
	// with the response it answered for it. A /build adopts the
	// coordinator's fence (the snapshots already contain those ops); a
	// re-sent /ops at or below the fenced epoch answers lastResp — or
	// empty sets for an older epoch, or one absorbed via a fenced build
	// — instead of re-applying. That idempotence is what makes the
	// coordinator's failover retry of an in-flight batch safe.
	lastEpoch uint64
	lastResp  *opsResponse

	gballPool sync.Pool

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
	s.gballPool.New = func() interface{} { return shortest.NewGraphBall() }
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
//	POST /row       one full-horizon intra row (part, src, reverse)
//	POST /rows      many full-horizon intra rows in one call (bulk)
//	POST /ops       apply one ordered, epoch-fenced op batch; answers
//	                piggybacked warm rows from the post-apply state
//	POST /affected  conservative balls against the data-graph replica
//	GET  /metrics   worker-side telemetry, Prometheus text exposition
//
// There is no point-distance endpoint: the client answers Dist (and
// every ball) from the cached full-horizon /row or /rows, which the
// engine's query patterns re-read many times per epoch anyway.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealth))
	mux.HandleFunc("POST /build", s.instrument("/build", s.handleBuild))
	mux.HandleFunc("POST /rebuild", s.instrument("/rebuild", s.handleRebuild))
	mux.HandleFunc("POST /horizon", s.instrument("/horizon", s.handleHorizon))
	mux.HandleFunc("POST /row", s.instrument("/row", s.handleRow))
	mux.HandleFunc("POST /rows", s.instrument("/rows", s.handleRows))
	mux.HandleFunc("POST /ops", s.instrument("/ops", s.handleOps))
	mux.HandleFunc("POST /affected", s.instrument("/affected", s.handleAffected))
	mux.Handle("GET /metrics", s.obs)
	return mux
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	built := s.replica != nil
	parts := len(s.subs)
	idx := s.index
	epoch := s.lastEpoch
	s.mu.RUnlock()
	srvutil.WriteJSON(w, http.StatusOK, map[string]interface{}{
		"ok": true, "built": built, "parts": parts, "index": idx, "epoch": epoch,
	})
}

// buildRequest carries the coordinator state a worker replicates.
type buildRequest struct {
	Config Config     `json:"config"`
	Index  int        `json:"index"`
	Graph  Snapshot   `json:"graph"`
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
	s.replica = req.Graph.Materialise()
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
	s.lastEpoch, s.lastResp = req.Config.Epoch, nil
	srvutil.WriteJSON(w, http.StatusOK, map[string]interface{}{"ok": true, "parts": len(s.subs)})
}

// rebuildRequest carries additional partitions for a built worker to
// absorb (the failover path); replica, fence and prior engines survive.
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
	if s.replica == nil {
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

// rowResponse is one full-horizon intra row.
type rowResponse struct {
	Nodes []uint32        `json:"nodes"`
	Dists []shortest.Dist `json:"dists"`
}

func (s *Server) handleRow(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Part    int    `json:"part"`
		Src     uint32 `json:"src"`
		Reverse bool   `json:"reverse"`
	}
	if !srvutil.Decode(w, r, &req) {
		return
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.local.Owns(req.Part) {
		srvutil.WriteError(w, http.StatusNotFound, "partition %d not owned by this worker", req.Part)
		return
	}
	var resp rowResponse
	_ = s.local.Ball(req.Part, req.Src, capHops(s.cfg.Horizon), req.Reverse,
		func(v uint32, d shortest.Dist) bool {
			resp.Nodes = append(resp.Nodes, v)
			resp.Dists = append(resp.Dists, d)
			return true
		})
	srvutil.WriteJSON(w, http.StatusOK, resp)
}

// bulkRow is one full-horizon intra row inside a bulk answer. Ok
// distinguishes "row computed" from "partition not owned here": the
// client must never install a not-owned answer as an (empty) row, or a
// routing race during failover would poison its cache.
type bulkRow struct {
	Ok    bool            `json:"ok"`
	Nodes []uint32        `json:"nodes,omitempty"`
	Dists []shortest.Dist `json:"dists,omitempty"`
}

// rowsResponse carries one bulkRow per request, aligned by index.
type rowsResponse struct {
	Rows []bulkRow `json:"rows"`
}

// bulkRows answers many row requests against the current engine state,
// fanned across the worker pool (rows of distinct sources share
// nothing). Callers hold at least the read lock.
func (s *Server) bulkRows(reqs []RowReq) []bulkRow {
	out := make([]bulkRow, len(reqs))
	maxD := capHops(s.cfg.Horizon)
	workpool.ForEach(s.cfg.Workers, len(reqs), func(i int) {
		rq := reqs[i]
		if !s.local.Owns(rq.Part) {
			return
		}
		r := &out[i]
		r.Ok = true
		_ = s.local.Ball(rq.Part, rq.Src, maxD, rq.Reverse,
			func(v uint32, d shortest.Dist) bool {
				r.Nodes = append(r.Nodes, v)
				r.Dists = append(r.Dists, d)
				return true
			})
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
	if s.replica == nil {
		srvutil.WriteError(w, http.StatusConflict, "worker not built")
		return
	}
	srvutil.WriteJSON(w, http.StatusOK, rowsResponse{Rows: s.bulkRows(req.Reqs)})
}

// opsResponse carries, aligned by op index, the local affected set of
// every op this worker owns (null otherwise), plus the piggybacked warm
// rows (aligned with the request's warm list) computed from the
// post-apply state.
type opsResponse struct {
	Aff  [][]uint32 `json:"aff"`
	Rows []bulkRow  `json:"rows,omitempty"`
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
	if s.replica == nil {
		srvutil.WriteError(w, http.StatusConflict, "worker not built")
		return
	}
	// Warm rows are recomputed fresh on every delivery — including fence
	// replays — because they describe post-apply engine state, which is
	// identical whether the ops applied now or on the lost first try.
	// Only Aff is part of the fence record.
	respond := func(resp opsResponse) {
		if len(req.Warm) > 0 {
			resp.Rows = s.bulkRows(req.Warm)
		}
		srvutil.WriteJSON(w, http.StatusOK, resp)
	}
	// Epoch fence (0 = unfenced legacy stream). A flush at the fenced
	// epoch was already absorbed — through an earlier delivery whose
	// response was lost, or through a fenced build whose snapshots
	// contained it — so answer what we answered then (empty sets after
	// a build: the coordinator's failover path compensates by dirtying
	// every reassigned partition's bridge anchors conservatively).
	if req.Epoch != 0 {
		if req.Epoch == s.lastEpoch {
			if s.lastResp != nil && len(s.lastResp.Aff) == len(req.Ops) {
				respond(*s.lastResp)
				return
			}
			respond(opsResponse{Aff: make([][]uint32, len(req.Ops))})
			return
		}
		if req.Epoch < s.lastEpoch {
			// Below the fence entirely: this state already reflects the
			// epoch (a late re-delivery after a newer flush or a fenced
			// build), and only the latest response is recorded — answer
			// empty sets and let the coordinator's compensation dirty
			// the rebuilt partitions' bridge anchors conservatively.
			respond(opsResponse{Aff: make([][]uint32, len(req.Ops))})
			return
		}
	}
	resp := opsResponse{Aff: make([][]uint32, len(req.Ops))}
	for i, op := range req.Ops {
		aff, err := s.applyOp(op)
		if err != nil {
			srvutil.WriteError(w, http.StatusConflict, "op %d (%v): %v", i, op.Kind, err)
			return
		}
		resp.Aff[i] = aff
	}
	if req.Epoch != 0 {
		s.lastEpoch, s.lastResp = req.Epoch, &opsResponse{Aff: resp.Aff}
	}
	s.obs.Counter("gpnm_worker_ops_total").Add(uint64(len(req.Ops)))
	respond(resp)
}

// applyOp advances the data-graph replica by the op's global-id view
// and, when this worker owns the touched partition, mirrors the op
// into the partition subgraph and hands it to the embedded Local shard
// — the same graph-first-engine-second order the coordinator uses, and
// the same engine-maintenance code path (Local.ApplyOps).
func (s *Server) applyOp(op Op) ([]uint32, error) {
	mine := op.Shard == s.index && op.Part >= 0
	switch op.Kind {
	case OpEdgeInsert:
		if !s.replica.AddEdge(op.From, op.To) {
			return nil, fmt.Errorf("replica rejected edge insert %d->%d", op.From, op.To)
		}
		if !mine {
			return nil, nil
		}
		if !s.local.Owns(op.Part) {
			return nil, fmt.Errorf("partition %d not owned/built", op.Part)
		}
		s.subs[op.Part].AddEdge(op.LFrom, op.LTo)
	case OpEdgeDelete:
		if !s.replica.RemoveEdge(op.From, op.To) {
			return nil, fmt.Errorf("replica rejected edge delete %d->%d", op.From, op.To)
		}
		if !mine {
			return nil, nil
		}
		if !s.local.Owns(op.Part) {
			return nil, fmt.Errorf("partition %d not owned/built", op.Part)
		}
		s.subs[op.Part].RemoveEdge(op.LFrom, op.LTo)
	case OpNodeInsert:
		if id := s.replica.AddNodeLabelIDs(); id != op.Node {
			return nil, fmt.Errorf("replica assigned node id %d, coordinator expected %d", id, op.Node)
		}
		if !mine {
			return nil, nil
		}
		sub, ok := s.subs[op.Part]
		if !ok {
			// A node insert founded a new partition assigned to us;
			// Local.ApplyOps builds its engine from this fresh subgraph.
			sub = graph.New(nil)
			s.subs[op.Part] = sub
		}
		if local := sub.AddNodeLabelIDs(); local != op.Local {
			return nil, fmt.Errorf("partition %d assigned local id %d, coordinator expected %d", op.Part, local, op.Local)
		}
	case OpNodeDelete:
		if _, ok := s.replica.RemoveNode(op.Node); !ok {
			return nil, fmt.Errorf("replica rejected node delete %d", op.Node)
		}
		if !mine {
			return nil, nil
		}
		if !s.local.Owns(op.Part) {
			return nil, fmt.Errorf("partition %d not owned/built", op.Part)
		}
		// Local.ApplyOps replays op.RemovedLocal against the engine; the
		// mirror removal here yields the same edge set by construction.
		s.subs[op.Part].RemoveNode(op.Local)
	default:
		return nil, fmt.Errorf("unknown op kind %d", op.Kind)
	}
	return s.local.ApplyOp(op), nil
}

// affectedResponse carries one conservative ball per request.
type affectedResponse struct {
	Sets [][]uint32 `json:"sets"`
}

func (s *Server) handleAffected(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Reqs []AffectedReq `json:"reqs"`
	}
	if !srvutil.Decode(w, r, &req) {
		return
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.replica == nil {
		srvutil.WriteError(w, http.StatusConflict, "worker not built")
		return
	}
	resp := affectedResponse{Sets: make([][]uint32, len(req.Reqs))}
	//lint:allow lockguard read-locked CPU-only fan: no RPC or channel wait under the RLock; it orders /affected against /build swapping the replica
	workpool.ForEach(s.cfg.Workers, len(req.Reqs), func(i int) {
		gb := s.gballPool.Get().(*shortest.GraphBall)
		resp.Sets[i] = s.affected(gb, req.Reqs[i])
		s.gballPool.Put(gb)
	})
	srvutil.WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) affected(gb *shortest.GraphBall, req AffectedReq) nodeset.Set {
	switch req.Kind {
	case OpEdgeInsert, OpEdgeDelete:
		return EdgeAffected(gb, s.replica, req.From, req.To, s.cfg.Horizon)
	case OpNodeDelete:
		return NodeAffected(gb, s.replica, req.Node,
			s.replica.Out(req.Node), s.replica.In(req.Node), s.cfg.Horizon)
	}
	return nil
}
