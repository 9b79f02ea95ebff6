package shard

import (
	"errors"
	"fmt"

	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/shortest"
	"uagpnm/internal/workpool"
)

// Local is the in-process Shard and the one owner of the partitions it
// serves: for each, the induced subgraph built from the coordinator's
// snapshot and the SLen engine over it. Every op it owns reaches the
// subgraph first, which checks it, and then the engine. It has two
// owners: the in-process §V engine, which serves all its partitions
// from one Local, and a worker's Server.
type Local struct {
	cfg   Config
	index int                // this shard's slot in the coordinator's table
	parts map[int]*localPart // owned partition index → its state
}

// localPart is one owned partition: its subgraph and the intra engine
// that reads it.
type localPart struct {
	sub *graph.Graph
	eng *shortest.Engine
}

// NewLocal returns an in-process shard that owns nothing until Build.
func NewLocal() *Local { return &Local{parts: make(map[int]*localPart)} }

// Ping reports nil: an in-process shard lives exactly as long as the
// coordinator does.
func (l *Local) Ping() error { return nil }

// Owns reports whether the shard holds partition part.
func (l *Local) Owns(part int) bool { return l.parts[part] != nil }

func (l *Local) eng(part int) *shortest.Engine {
	lp := l.parts[part]
	if lp == nil {
		//lint:allow panic ownership is fixed at Build time; the coordinator routing to a non-owned partition is a programming error
		panic(fmt.Sprintf("shard: partition %d not owned/built by this local shard", part))
	}
	return lp.eng
}

// newPart builds one partition's intra engine over sub. Its horizon
// picks its matrix, as for every SLen engine: Hybrid when capped, Dense
// in exact mode.
func (l *Local) newPart(sub *graph.Graph) *localPart {
	e := shortest.NewEngine(sub, l.cfg.Horizon)
	e.Build()
	return &localPart{sub: sub, eng: e}
}

// Build discards every partition the shard held and takes the owned
// ones from src.
func (l *Local) Build(cfg Config, index int, owned []int, src Source) error {
	clear(l.parts)
	return l.Rebuild(cfg, index, owned, src)
}

// Rebuild takes the added partitions from src on top of the ones the
// shard holds.
func (l *Local) Rebuild(cfg Config, index int, added []int, src Source) error {
	snaps := make([]Snapshot, len(added))
	for i, p := range added {
		snaps[i] = src.PartSnapshot(p)
	}
	l.install(cfg, index, snaps)
	return nil
}

// install builds a partition from each snapshot, one partition per pool
// worker — partitions are disjoint, so the builds share nothing. Each
// engine's BFS build fans across the same pool again, so a 2-partition
// graph on a 16-way pool still builds 16-wide instead of 2-wide.
func (l *Local) install(cfg Config, index int, snaps []Snapshot) {
	l.cfg, l.index = cfg, index
	built := make([]*localPart, len(snaps))
	workpool.ForEach(len(snaps), func(i int) {
		built[i] = l.newPart(snaps[i].Materialise())
	})
	for i, s := range snaps {
		l.parts[s.Part] = built[i]
	}
}

// EnsureHorizon widens every owned engine to cover bound k, one
// partition per worker.
func (l *Local) EnsureHorizon(k int) error {
	if l.cfg.Horizon == 0 || k <= l.cfg.Horizon {
		return nil
	}
	l.cfg.Horizon = k
	engs := make([]*shortest.Engine, 0, len(l.parts))
	for _, lp := range l.parts {
		engs = append(engs, lp.eng)
	}
	workpool.ForEach(len(engs), func(i int) { engs[i].EnsureHorizon(k) })
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
	_ = l.Ball(rq.Part, rq.Src, shortest.CapHops(l.cfg.Horizon), rq.Reverse, sc.collect)
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

// ApplyOps applies every op of the stream this shard owns, in order —
// to its subgraph first, then to the engine — and returns the local
// affected sets (nil for cross-partition and other slots' ops). An op
// the subgraph refuses means the shard and the coordinator disagree
// about the partition: the call stops there with an error, before the
// engine sees that op. The epoch fence is the worker's (Server), and
// the warm row demand is a remote client's; both are ignored here.
func (l *Local) ApplyOps(_ uint64, ops []Op, _ []RowReq) ([][]uint32, error) {
	aff := make([][]uint32, len(ops))
	for i, op := range ops {
		var err error
		if aff[i], err = l.apply(op); err != nil {
			return nil, fmt.Errorf("op %d (%v): %w", i, op.Kind, err)
		}
	}
	return aff, nil
}

// apply is one op of ApplyOps.
func (l *Local) apply(op Op) ([]uint32, error) {
	if op.Kind < OpEdgeInsert || op.Kind > OpNodeDelete {
		return nil, fmt.Errorf("unknown op kind %d", op.Kind)
	}
	if op.Shard != l.index || op.Part < 0 {
		return nil, nil
	}
	lp := l.parts[op.Part]
	if lp == nil {
		if op.Kind != OpNodeInsert || op.Local != 0 {
			return nil, fmt.Errorf("partition %d not owned/built", op.Part)
		}
		// A node insert founded a partition assigned to this shard:
		// one node, so the build runs serially.
		sub := graph.New(nil)
		sub.AddNodeLabelIDs()
		l.parts[op.Part] = l.newPart(sub)
		return []uint32{0}, nil
	}
	switch op.Kind {
	case OpEdgeInsert:
		if !lp.sub.AddEdge(op.LFrom, op.LTo) {
			return nil, fmt.Errorf("partition %d rejected edge insert %d->%d", op.Part, op.LFrom, op.LTo)
		}
		return lp.eng.InsertEdge(op.LFrom, op.LTo), nil
	case OpEdgeDelete:
		if !lp.sub.RemoveEdge(op.LFrom, op.LTo) {
			return nil, fmt.Errorf("partition %d rejected edge delete %d->%d", op.Part, op.LFrom, op.LTo)
		}
		return lp.eng.DeleteEdge(op.LFrom, op.LTo), nil
	case OpNodeInsert:
		if local := lp.sub.AddNodeLabelIDs(); local != op.Local {
			return nil, fmt.Errorf("partition %d assigned local id %d, coordinator expected %d", op.Part, local, op.Local)
		}
		lp.eng.InsertNode(op.Local)
		return []uint32{op.Local}, nil
	default:
		removed, ok := lp.sub.RemoveNode(op.Local)
		if !ok {
			return nil, fmt.Errorf("partition %d rejected node delete %d", op.Part, op.Local)
		}
		return lp.eng.DeleteNode(op.Local, removed), nil
	}
}

// Affected is pinned by the frozen benchmark module, ROADMAP 1 (h).
func (l *Local) Affected([]AffectedReq) ([]nodeset.Set, error) { return nil, errors.ErrUnsupported }

// Close is a no-op for in-process shards.
func (l *Local) Close() error { return nil }

var _ Shard = (*Local)(nil)
