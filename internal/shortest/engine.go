package shortest

import (
	"fmt"
	"sync"

	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/updates"
	"uagpnm/internal/workpool"
)

// Engine maintains SLen — the shortest-path-length matrix between each
// pair of nodes in GD (paper Table II) — plus its mirror over the
// reversed graph, so both forward balls ("everything within k hops of u")
// and reverse balls ("everything that reaches v within k hops") are one
// row scan. The matcher, the affected-set computation (DER-II/III) and
// the partition engine are all built on these two queries.
//
// Mutation contract: ApplyData applies each update to the graph and
// synchronises SLen after it, one update at a time. The per-update
// methods (InsertEdge after graph.AddEdge, DeleteEdge after
// graph.RemoveEdge, and so on) do not mutate the graph; callers that use
// them apply the structural change first.
type Engine struct {
	g       *graph.Graph
	horizon int // 0 = exact/unbounded
	fwd     Matrix
	rev     Matrix
	sweep   Sweep // applyDeletions' row recomputes

	// row snapshot buffers for diffing during recompute
	oldCols  []uint32
	oldDists []Dist
}

// NewEngine creates an SLen engine over g with the given hop horizon
// (0 = exact). Call Build before querying.
//
// The horizon picks the matrix for the engine's life (EnsureHorizon never
// makes a capped engine exact): Dense when exact, Hybrid when capped. An
// exact row holds every node its source reaches, mostly in Hybrid's
// overflow, whose Get (InsertEdge's closed form) is a linear scan; a
// capped row holds a ball, which Dense reads by scanning all n columns.
func NewEngine(g *graph.Graph, horizon int) *Engine {
	e := &Engine{g: g, horizon: horizon}
	n := g.NumIDs()
	e.fwd = e.newMatrix(n)
	e.rev = e.newMatrix(n)
	return e
}

func (e *Engine) newMatrix(n int) Matrix {
	if e.horizon == 0 {
		return NewDense(n)
	}
	return NewHybrid(n)
}

// Graph returns the engine's graph.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Horizon reports the hop cap (0 = exact mode).
func (e *Engine) Horizon() int { return e.horizon }

// Exact reports whether distances beyond any bound are represented
// (true only in unbounded mode). Capped engines answer every test with
// bound ≤ Horizon exactly; reachability ("*") tests degrade to
// "within Horizon hops".
func (e *Engine) Exact() bool { return e.horizon == 0 }

// Build computes both matrices from scratch, one sweep per row, in
// parallel.
func (e *Engine) Build() {
	n := e.g.NumIDs()
	e.fwd.GrowTo(n)
	e.rev.GrowTo(n)
	for r := uint32(0); int(r) < n; r++ {
		e.fwd.ClearRow(r)
		e.rev.ClearRow(r)
	}
	e.buildInto(e.fwd, false)
	e.buildInto(e.rev, true)
}

// buildInto fills m with one sorted Sweep row per live node, fanned
// across the pool. Each call runs on a pooled sweep; SetRow copies its
// input, so the sweep's slices go straight in, under the mutex that
// serialises writes to m.
func (e *Engine) buildInto(m Matrix, reverse bool) {
	n, hops := e.g.NumIDs(), CapHops(e.horizon)
	sweeps := sync.Pool{New: func() any { return new(Sweep) }}
	var mu sync.Mutex
	workpool.ForEach(n, func(i int) {
		src := uint32(i)
		if !e.g.Alive(src) {
			return
		}
		sw := sweeps.Get().(*Sweep)
		sw.From(e.g, src, hops, reverse)
		sw.Sort()
		mu.Lock()
		m.SetRow(src, sw.Reached, sw.Level)
		mu.Unlock()
		sweeps.Put(sw)
	})
}

// Dist returns the shortest path length from u to v (Inf beyond the
// horizon or when no path exists).
func (e *Engine) Dist(u, v uint32) Dist {
	if u == v && e.g.Alive(u) {
		return 0
	}
	return e.fwd.Get(u, v)
}

// Reachable reports whether v is reachable from u — within the horizon
// for capped engines (see Exact).
func (e *Engine) Reachable(u, v uint32) bool { return e.Dist(u, v) != Inf }

// WithinHops reports whether d(u,v) ≤ k. k must be ≤ Horizon for capped
// engines; larger k panic to surface miscalibrated callers.
func (e *Engine) WithinHops(u, v uint32, k int) bool {
	if e.horizon != 0 && k > e.horizon {
		panic(fmt.Sprintf("shortest: WithinHops(%d) beyond horizon %d", k, e.horizon))
	}
	d := e.Dist(u, v)
	return d != Inf && int(d) <= k
}

// ForwardBall visits every v with d(u,v) ≤ k (including u itself at 0)
// in ascending id order.
func (e *Engine) ForwardBall(u uint32, k int, fn func(v uint32, d Dist) bool) {
	e.fwd.RowWithin(u, k, fn)
}

// ReverseBall visits every x with d(x,v) ≤ k (including v itself at 0)
// in ascending id order.
func (e *Engine) ReverseBall(v uint32, k int, fn func(x uint32, d Dist) bool) {
	e.rev.RowWithin(v, k, fn)
}

// ForwardBallIn visits the members of set within k of u in ascending id
// order.
func (e *Engine) ForwardBallIn(u uint32, k int, set *nodeset.Bits, fn func(v uint32) bool) {
	rowIn(e.fwd, u, k, set, fn)
}

// ReverseBallIn visits the members of set within k hops to v in
// ascending id order.
func (e *Engine) ReverseBallIn(v uint32, k int, set *nodeset.Bits, fn func(x uint32) bool) {
	rowIn(e.rev, v, k, set, fn)
}

// ballFilter adapts a set-filtered read to Matrix.RowWithin. Its visit
// callback is bound once per pooled instance, so a filtered read
// allocates nothing; the pool hands a nested read its own instance.
type ballFilter struct {
	set   *nodeset.Bits
	fn    func(uint32) bool
	visit func(uint32, Dist) bool
}

var ballFilters = sync.Pool{New: func() any {
	f := new(ballFilter)
	f.visit = func(c uint32, _ Dist) bool { return !f.set.Contains(c) || f.fn(c) }
	return f
}}

// rowIn visits the members of set in row r of m at most k.
func rowIn(m Matrix, r uint32, k int, set *nodeset.Bits, fn func(uint32) bool) {
	f := ballFilters.Get().(*ballFilter)
	f.set, f.fn = set, fn
	m.RowWithin(r, k, f.visit)
	f.set, f.fn = nil, nil
	ballFilters.Put(f)
}

// ApplyData applies ΔGD to g (the engine's graph) and synchronises SLen
// one update at a time, in order: each update reaches the graph through
// updates.ApplyGraph and is then folded into the matrices by its
// per-update step. It returns the batch change log with its depths, as
// the partition engine's log names them: every source of a pair whose
// distance moved at δ = the smallest of the pair's old and new distance
// (an inserted edge's sources at d(x,u)+1, a recomputed row's at its
// nearest moved column, a deleted node's at d(x,id)), plus every node
// the batch inserted or deleted at 0. This is the baselines'
// maintenance; it never fails.
func (e *Engine) ApplyData(ds []updates.Update, g *graph.Graph) (ChangeLog, error) {
	_, log := e.applyData(ds, g, false)
	return log, nil
}

// ApplyDataAffected is ApplyData with each update's affected set as
// well (nil for a no-op update): both endpoints of every pair whose
// distance the update moved, read off its own synchronisation step —
// the paper's exact Aff_N, which EH-GPNM's tree is built on.
func (e *Engine) ApplyDataAffected(ds []updates.Update, g *graph.Graph) ([]nodeset.Set, ChangeLog) {
	return e.applyData(ds, g, true)
}

// applyData is ApplyData, collecting the per-update sets only when sets
// is set.
func (e *Engine) applyData(ds []updates.Update, g *graph.Graph, sets bool) (perUpdate []nodeset.Set, log ChangeLog) {
	if sets {
		perUpdate = make([]nodeset.Set, len(ds))
	}
	var lb LogBuilder
	lb.Grow(g.NumIDs())
	for i, u := range ds {
		removed, ok := updates.ApplyGraph(u, g)
		if !ok {
			continue
		}
		aff := splitAff{log: &lb, logOnly: !sets}
		switch u.Kind {
		case updates.DataEdgeInsert:
			e.insertEdge(u.From, u.To, &aff)
		case updates.DataEdgeDelete:
			e.applyDeletions([]graph.Edge{{From: u.From, To: u.To}}, &aff)
		case updates.DataNodeInsert:
			e.insertNode(u.Node, &aff)
		case updates.DataNodeDelete:
			e.deleteNode(u.Node, removed, &aff)
		}
		if sets {
			perUpdate[i] = aff.set()
		}
	}
	return perUpdate, lb.Log()
}

// splitAff collects one update's affected set by direction: fwd the
// sources of the pairs whose distance moved, rev their targets. Their
// union is the paper's Aff_N. log, when set, gathers each source at its
// depth for the batch change log; logOnly skips the sets.
type splitAff struct {
	fwd, rev nodeset.Builder
	log      *LogBuilder
	logOnly  bool
}

// moved records x as the source of moved pairs, the nearest at depth d.
func (a *splitAff) moved(x uint32, d int) {
	if !a.logOnly {
		a.fwd.Add(x)
	}
	if a.log != nil {
		a.log.Add(x, d)
	}
}

// target records y as the target of moved pairs.
func (a *splitAff) target(y uint32) {
	if !a.logOnly {
		a.rev.Add(y)
	}
}

// set is the union of both directions.
func (a *splitAff) set() nodeset.Set { return a.fwd.Set().Union(a.rev.Set()) }

// InsertEdge updates SLen after edge (u,v) was added to the graph, using
// the exact single-edge closed form
//
//	d'(x,y) = min(d(x,y), d(x,u) + 1 + d(v,y)),
//
// and returns the affected nodes: every endpoint of a pair whose distance
// changed (the paper's Aff_N).
func (e *Engine) InsertEdge(u, v uint32) nodeset.Set {
	var aff splitAff
	e.insertEdge(u, v, &aff)
	return aff.set()
}

// insertEdge is InsertEdge's update, with the affected set by direction.
func (e *Engine) insertEdge(u, v uint32, aff *splitAff) {
	H := CapHops(e.horizon)
	// X: sources reaching u within H-1; Y: targets within H-1 of v.
	type hop struct {
		id uint32
		d  Dist
	}
	var xs, ys []hop
	e.rev.Row(u, func(x uint32, d Dist) bool {
		if int(d) <= H-1 {
			xs = append(xs, hop{x, d})
		}
		return true
	})
	e.fwd.Row(v, func(y uint32, d Dist) bool {
		if int(d) <= H-1 {
			ys = append(ys, hop{y, d})
		}
		return true
	})
	for _, x := range xs {
		moved := false
		for _, y := range ys {
			if x.id == y.id {
				continue
			}
			nd := int(x.d) + 1 + int(y.d)
			if nd > H {
				continue
			}
			old := e.fwd.Get(x.id, y.id)
			if Dist(nd) < old {
				e.fwd.Set(x.id, y.id, Dist(nd))
				e.rev.Set(y.id, x.id, Dist(nd))
				aff.target(y.id)
				moved = true
			}
		}
		if moved {
			// Every pair it moved now runs x ⇝ u → v ⇝ y.
			aff.moved(x.id, int(x.d)+1)
		}
	}
}

// DeleteEdge updates SLen after edge (u,v) was removed from the graph by
// re-sweeping the row of every source that could have routed through
// (u,v), and returns the affected nodes.
func (e *Engine) DeleteEdge(u, v uint32) nodeset.Set {
	var aff splitAff
	e.applyDeletions([]graph.Edge{{From: u, To: v}}, &aff)
	return aff.set()
}

// InsertNode registers a freshly added (isolated) node. Its edges are
// reported through InsertEdge as they are added.
func (e *Engine) InsertNode(id uint32) nodeset.Set {
	var aff splitAff
	e.insertNode(id, &aff)
	return aff.set()
}

// insertNode is InsertNode's update: id is on both directions.
func (e *Engine) insertNode(id uint32, aff *splitAff) {
	e.fwd.GrowTo(int(id) + 1)
	e.rev.GrowTo(int(id) + 1)
	e.fwd.Set(id, id, 0)
	e.rev.Set(id, id, 0)
	aff.moved(id, 0)
	aff.target(id)
}

// DeleteNode updates SLen after node id and its incident edges (removed,
// as returned by graph.RemoveNode) were deleted, and returns the affected
// nodes (id included).
func (e *Engine) DeleteNode(id uint32, removed []graph.Edge) nodeset.Set {
	var aff splitAff
	e.deleteNode(id, removed, &aff)
	return aff.set()
}

// deleteNode is DeleteNode's update, with the affected set by direction:
// id is on both (at depth 0), the targets left on its forward row are
// reverse, the sources left on its reverse row forward at their distance
// to id.
func (e *Engine) deleteNode(id uint32, removed []graph.Edge, aff *splitAff) {
	e.applyDeletions(removed, aff)
	// The node's own rows must empty entirely (the sweep from the now-dead
	// source already cleared the forward row if id was a deletion source;
	// make both directions unconditional).
	aff.moved(id, 0)
	aff.target(id)
	e.fwd.Row(id, func(c uint32, d Dist) bool { aff.target(c); return true })
	e.rev.Row(id, func(c uint32, d Dist) bool { aff.moved(c, int(d)); return true })
	clearMirror := func(m, mirror Matrix) {
		var cols []uint32
		m.Row(id, func(c uint32, d Dist) bool { cols = append(cols, c); return true })
		m.ClearRow(id)
		for _, c := range cols {
			mirror.Set(c, id, Inf)
		}
	}
	clearMirror(e.fwd, e.rev)
	clearMirror(e.rev, e.fwd)
}

// deletionSources gathers every source whose row may change when the
// given edges disappear: anything that reaches some edge's tail within
// horizon-1 hops (per the current matrices), the tails themselves
// included.
func (e *Engine) deletionSources(edges []graph.Edge) []uint32 {
	H := CapHops(e.horizon)
	seen := nodeset.NewBits(e.g.NumIDs())
	var srcs []uint32
	for _, ed := range edges {
		if seen.Add(ed.From) {
			srcs = append(srcs, ed.From)
		}
		e.rev.Row(ed.From, func(x uint32, d Dist) bool {
			if int(d) <= H-1 && seen.Add(x) {
				srcs = append(srcs, x)
			}
			return true
		})
	}
	return srcs
}

// applyDeletions recomputes the rows of every candidate source after the
// graph already dropped the given edges, mirroring changes into the
// reverse matrix, and adds the affected nodes to aff.
func (e *Engine) applyDeletions(edges []graph.Edge, aff *splitAff) {
	for _, x := range e.deletionSources(edges) {
		e.sweep.From(e.g, x, CapHops(e.horizon), false)
		e.sweep.Sort()
		e.diffRow(x, e.sweep.Reached, e.sweep.Level, aff)
	}
}

// diffRow compares the freshly computed row of x against the stored one,
// recording every moved column as a reverse affected node and x as a
// forward one at its nearest moved column's min(old, new), installs the
// new row in fwd and mirrors deltas into rev.
func (e *Engine) diffRow(x uint32, cols []uint32, dists []Dist, aff *splitAff) {
	// Snapshot the old row (SetRow would clear it before we finish diffing).
	e.oldCols = e.oldCols[:0]
	e.oldDists = e.oldDists[:0]
	e.fwd.Row(x, func(c uint32, d Dist) bool {
		e.oldCols = append(e.oldCols, c)
		e.oldDists = append(e.oldDists, d)
		return true
	})
	i, j := 0, 0
	depth := Inf // the nearest moved column's min(old, new); Inf: none moved
	for i < len(e.oldCols) || j < len(cols) {
		switch {
		case j == len(cols) || (i < len(e.oldCols) && e.oldCols[i] < cols[j]):
			// entry disappeared
			c := e.oldCols[i]
			aff.target(c)
			depth = min(depth, e.oldDists[i])
			e.rev.Set(c, x, Inf)
			i++
		case i == len(e.oldCols) || cols[j] < e.oldCols[i]:
			// entry appeared (possible when a deletion batch is applied
			// after insertions in the same reconciliation)
			c := cols[j]
			aff.target(c)
			depth = min(depth, dists[j])
			e.rev.Set(c, x, dists[j])
			j++
		default:
			if e.oldDists[i] != dists[j] {
				aff.target(cols[j])
				depth = min(depth, e.oldDists[i], dists[j])
				e.rev.Set(cols[j], x, dists[j])
			}
			i++
			j++
		}
	}
	if depth != Inf {
		aff.moved(x, int(depth))
		e.fwd.SetRow(x, cols, dists)
	}
}

// Clone returns an engine over g2 (a clone of the engine's graph) with
// copied matrices, so benchmark iterations can mutate independently.
func (e *Engine) Clone(g2 *graph.Graph) *Engine {
	return &Engine{
		g:       g2,
		horizon: e.horizon,
		fwd:     e.fwd.Clone(),
		rev:     e.rev.Clone(),
	}
}

// EnsureHorizon widens a capped engine to cover bound k, rebuilding when
// the current horizon is insufficient. Exact engines are always fine.
func (e *Engine) EnsureHorizon(k int) {
	if e.horizon == 0 || k <= e.horizon {
		return
	}
	e.horizon = k
	e.Build()
}
