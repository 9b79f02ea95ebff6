package shard

import (
	"errors"
	"fmt"

	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/shortest"
	"uagpnm/internal/workpool"
)

// Local is the in-process Shard: it reads its owner's partition
// subgraphs (shared pointers, never copies) and owns only the
// per-partition SLen engines, built in Build and advanced by every op.
// It has two owners: the in-process §V engine, which serves all its
// partitions from one Local (the monolithic engine, re-expressed through
// the seam), and a worker's Server, over the subgraphs it built from the
// coordinator's snapshots.
type Local struct {
	cfg Config
	sub func(part int) *graph.Graph // coordinator's subgraph accessor

	engs []*shortest.Engine // part index → intra engine (nil: not owned/built)
}

// NewLocal returns an in-process shard reading partition subgraphs
// through sub. The same accessor serves partitions created later.
func NewLocal(sub func(part int) *graph.Graph) *Local {
	return &Local{sub: sub}
}

// Remote reports false: ops reach a Local shard only when it owns the
// touched partition, unfenced, and it cannot be lost.
func (l *Local) Remote() bool { return false }

// Ping reports nil: an in-process shard lives exactly as long as the
// coordinator does.
func (l *Local) Ping() error { return nil }

func (l *Local) growTo(part int) {
	for len(l.engs) <= part {
		l.engs = append(l.engs, nil)
	}
}

// Owns reports whether the shard holds a built engine for part.
func (l *Local) Owns(part int) bool {
	return part >= 0 && part < len(l.engs) && l.engs[part] != nil
}

func (l *Local) eng(part int) *shortest.Engine {
	if part >= len(l.engs) || l.engs[part] == nil {
		//lint:allow panic ownership is fixed at Build time; the coordinator routing to a non-owned partition is a programming error
		panic(fmt.Sprintf("shard: partition %d not owned/built by this local shard", part))
	}
	return l.engs[part]
}

// The intra engines run the hybrid sparse backend even for small
// partitions (dense threshold 0): stitched queries iterate intra rows
// constantly, and hybrid rows cost O(ball) per scan where dense rows
// cost O(|Pi|).
const (
	intraDenseThreshold = 0
	intraELLWidth       = 8
)

// newEngine builds one partition's intra engine with the given internal
// build fan-out.
func (l *Local) newEngine(sub *graph.Graph, subWorkers int) *shortest.Engine {
	return shortest.NewEngine(sub, l.cfg.Horizon,
		shortest.WithDenseThreshold(intraDenseThreshold),
		shortest.WithELLWidth(intraELLWidth),
		shortest.WithWorkers(subWorkers))
}

// Build (re)builds the owned partitions' engines, one partition per
// worker — partitions are disjoint, so the builds share nothing but
// the read-only label table. The pool is split across the two levels:
// with fewer partitions than workers, each engine's BFS build gets the
// leftover share, so a 2-partition graph on a 16-way pool still builds
// 16-wide instead of 2-wide.
func (l *Local) Build(cfg Config, index int, owned []int, src Source) error {
	l.cfg = cfg
	for _, p := range owned {
		l.growTo(p)
	}
	workers := cfg.Workers
	subShare := 1
	if len(owned) > 0 && workers > len(owned) {
		subShare = (workers + len(owned) - 1) / len(owned)
	}
	workpool.ForEach(workers, len(owned), func(i int) {
		p := owned[i]
		e := l.newEngine(l.sub(p), subShare)
		e.Build()
		l.engs[p] = e
	})
	return nil
}

// Rebuild builds engines for additional partitions on top of the
// existing ones. For an in-process shard this is exactly Build over the
// added set: Build only touches the partitions it is handed, and the
// subgraphs are the coordinator's own.
func (l *Local) Rebuild(cfg Config, index int, added []int, src Source) error {
	return l.Build(cfg, index, added, src)
}

// EnsureHorizon widens every owned engine to cover bound k, one
// partition per worker.
func (l *Local) EnsureHorizon(k int) error {
	if l.cfg.Horizon == 0 || k <= l.cfg.Horizon {
		return nil
	}
	l.cfg.Horizon = k
	workpool.ForEach(l.cfg.Workers, len(l.engs), func(i int) {
		if l.engs[i] != nil {
			l.engs[i].EnsureHorizon(k)
		}
	})
	return nil
}

// Ball visits the intra ball of src (in ascending local-id order: an
// engine row scan).
func (l *Local) Ball(part int, src uint32, maxD int, reverse bool, fn func(local uint32, d shortest.Dist) bool) error {
	e := l.eng(part)
	if reverse {
		e.ReverseBall(src, maxD, fn)
		return nil
	}
	e.ForwardBall(src, maxD, fn)
	return nil
}

// rowScratch collects one engine row scan for NewRow to bucket, so a
// row costs its one counted allocation however long it is. collect is
// the scan callback, made once with the scratch.
type rowScratch struct {
	ids     []uint32
	dists   []shortest.Dist
	collect func(v uint32, d shortest.Dist) bool
}

func newRowScratch() *rowScratch {
	sc := new(rowScratch)
	sc.collect = func(v uint32, d shortest.Dist) bool {
		sc.ids = append(sc.ids, v)
		sc.dists = append(sc.dists, d)
		return true
	}
	return sc
}

// row builds one full-horizon intra row of an owned partition. The
// engine scans ascending, so every layer of the row is ascending.
func (l *Local) row(rq RowReq, sc *rowScratch) Row {
	sc.ids, sc.dists = sc.ids[:0], sc.dists[:0]
	_ = l.Ball(rq.Part, rq.Src, capHops(l.cfg.Horizon), rq.Reverse, sc.collect)
	return NewRow(sc.ids, sc.dists)
}

// Rows answers many full-horizon intra rows in one call. In-process
// there is nothing to batch — each row is one engine scan — so this is
// the plain loop; it is the reference the remote read plane is tested
// against, and a worker's bulk answers are built by the same row.
func (l *Local) Rows(reqs []RowReq) ([]Row, error) {
	sc := newRowScratch()
	out := make([]Row, len(reqs))
	for i, rq := range reqs {
		out[i] = l.row(rq, sc)
	}
	return out, nil
}

// ApplyOp synchronises the owning engine after one structural mutation
// (the shared subgraph already reflects it) and returns the local
// affected set — the allocation-free fast path the coordinator's
// in-process per-op loop uses directly. Cross-partition edges
// (Part < 0) are skipped: no intra engine sees them.
func (l *Local) ApplyOp(op Op) []uint32 {
	if op.Part < 0 {
		return nil
	}
	switch op.Kind {
	case OpEdgeInsert:
		return l.eng(op.Part).InsertEdge(op.LFrom, op.LTo)
	case OpEdgeDelete:
		return l.eng(op.Part).DeleteEdge(op.LFrom, op.LTo)
	case OpNodeInsert:
		l.growTo(op.Part)
		if l.engs[op.Part] == nil {
			// Fresh partition: one node, serial build.
			e := l.newEngine(l.sub(op.Part), 1)
			e.Build()
			l.engs[op.Part] = e
		} else {
			l.engs[op.Part].InsertNode(op.Local)
		}
		return []uint32{op.Local}
	case OpNodeDelete:
		removed := make([]graph.Edge, len(op.RemovedLocal))
		for j, e := range op.RemovedLocal {
			removed[j] = graph.Edge{From: e.From, To: e.To}
		}
		return l.eng(op.Part).DeleteNode(op.Local, removed)
	}
	return nil
}

// ApplyOps is the batch form of ApplyOp (the Shard interface surface).
// The epoch fence is meaningless in-process — the subgraphs are the
// coordinator's own, and a Local shard can never half-apply a flush —
// so it is ignored, as is the warm row demand (there is no
// client row cache to warm; the coordinator reads the engines directly).
func (l *Local) ApplyOps(_ uint64, ops []Op, _ []RowReq) ([][]uint32, error) {
	aff := make([][]uint32, len(ops))
	for i, op := range ops {
		aff[i] = l.ApplyOp(op)
	}
	return aff, nil
}

// Affected is pinned by the frozen benchmark module, ROADMAP 1 (h).
func (l *Local) Affected([]AffectedReq) ([]nodeset.Set, error) { return nil, errors.ErrUnsupported }

// Close is a no-op for in-process shards.
func (l *Local) Close() error { return nil }

var _ Shard = (*Local)(nil)
