package shortest

import (
	"fmt"
	"sync"

	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/workpool"
)

// Engine maintains SLen — the shortest-path-length matrix between each
// pair of nodes in GD (paper Table II) — plus its mirror over the
// reversed graph, so both forward balls ("everything within k hops of u")
// and reverse balls ("everything that reaches v within k hops") are one
// row scan. The matcher, the affected-set computation (DER-II/III) and
// the partition engine are all built on these two queries.
//
// Mutation contract: the engine does not mutate the graph. Callers apply
// the structural change to the graph first and then invoke the matching
// engine method (InsertEdge after graph.AddEdge, DeleteEdge after
// graph.RemoveEdge, and so on).
type Engine struct {
	g       *graph.Graph
	horizon int // 0 = exact/unbounded
	fwd     Matrix
	rev     Matrix
	scratch *bfsScratch

	denseThreshold int
	ellWidth       int

	// row snapshot buffers for diffing during recompute
	oldCols  []uint32
	oldDists []Dist
}

// Option configures an Engine.
type Option func(*Engine)

// WithDenseThreshold sets the node count up to which the dense matrix
// backend is selected (default 2048).
func WithDenseThreshold(n int) Option { return func(e *Engine) { e.denseThreshold = n } }

// WithELLWidth sets the hybrid backend's ELL row width (default 16).
func WithELLWidth(k int) Option { return func(e *Engine) { e.ellWidth = k } }

// NewEngine creates an SLen engine over g with the given hop horizon
// (0 = exact). Call Build before querying.
func NewEngine(g *graph.Graph, horizon int, opts ...Option) *Engine {
	e := &Engine{g: g, horizon: horizon, denseThreshold: 2048, ellWidth: 16}
	for _, o := range opts {
		o(e)
	}
	n := g.NumIDs()
	e.fwd = e.newMatrix(n)
	e.rev = e.newMatrix(n)
	e.scratch = newBFSScratch(n)
	return e
}

func (e *Engine) newMatrix(n int) Matrix {
	if n <= e.denseThreshold {
		return NewDense(n)
	}
	return NewHybrid(n, e.ellWidth)
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

// Build computes both matrices from scratch with parallel BFS.
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

// buildInto fills m with one BFS row per live node, fanned across the
// pool. Each call runs on a pooled scratch; SetRow copies its input, so
// the scratch's slices go straight in, under the mutex that serialises
// writes to m.
func (e *Engine) buildInto(m Matrix, reverse bool) {
	n := e.g.NumIDs()
	scratch := sync.Pool{New: func() any { return newBFSScratch(n) }}
	var mu sync.Mutex
	workpool.ForEach(n, func(i int) {
		src := uint32(i)
		if !e.g.Alive(src) {
			return
		}
		sc := scratch.Get().(*bfsScratch)
		cols, dists := sc.run(e.g, src, e.horizon, reverse)
		mu.Lock()
		m.SetRow(src, cols, dists)
		mu.Unlock()
		scratch.Put(sc)
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

// Matrix exposes the forward SLen matrix (read-only use).
func (e *Engine) Matrix() Matrix { return e.fwd }

// effectiveHorizon returns the cap as an int usable in comparisons
// (a huge value in exact mode).
func (e *Engine) effectiveHorizon() int {
	if e.horizon == 0 {
		return int(Inf) - 1
	}
	return e.horizon
}

// InsertEdge updates SLen after edge (u,v) was added to the graph, using
// the exact single-edge closed form
//
//	d'(x,y) = min(d(x,y), d(x,u) + 1 + d(v,y)),
//
// and returns the affected nodes: every endpoint of a pair whose distance
// changed (the paper's Aff_N).
func (e *Engine) InsertEdge(u, v uint32) nodeset.Set {
	H := e.effectiveHorizon()
	var aff nodeset.Builder
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
				aff.Add(x.id)
				aff.Add(y.id)
			}
		}
	}
	return aff.Set()
}

// DeleteEdge updates SLen after edge (u,v) was removed from the graph by
// re-running bounded BFS from every source that could have routed through
// (u,v), and returns the affected nodes.
func (e *Engine) DeleteEdge(u, v uint32) nodeset.Set {
	return e.applyDeletions([]graph.Edge{{From: u, To: v}})
}

// InsertNode registers a freshly added (isolated) node. Its edges are
// reported through InsertEdge as they are added.
func (e *Engine) InsertNode(id uint32) nodeset.Set {
	e.fwd.GrowTo(int(id) + 1)
	e.rev.GrowTo(int(id) + 1)
	e.fwd.Set(id, id, 0)
	e.rev.Set(id, id, 0)
	return nodeset.New(id)
}

// DeleteNode updates SLen after node id and its incident edges (removed,
// as returned by graph.RemoveNode) were deleted, and returns the affected
// nodes (id included).
func (e *Engine) DeleteNode(id uint32, removed []graph.Edge) nodeset.Set {
	aff := e.applyDeletions(removed)
	// The node's own rows must empty entirely (BFS from the now-dead
	// source already cleared the forward row if id was a deletion source;
	// make both directions unconditional).
	var extra nodeset.Builder
	extra.Add(id)
	e.fwd.Row(id, func(c uint32, d Dist) bool { extra.Add(c); return true })
	e.rev.Row(id, func(c uint32, d Dist) bool { extra.Add(c); return true })
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
	return aff.Union(extra.Set())
}

// deletionSources gathers every source whose row may change when the
// given edges disappear: anything that reaches some edge's tail within
// horizon-1 hops (per the current matrices), the tails themselves
// included.
func (e *Engine) deletionSources(edges []graph.Edge) []uint32 {
	H := e.effectiveHorizon()
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
// reverse matrix, and returns the affected set.
func (e *Engine) applyDeletions(edges []graph.Edge) nodeset.Set {
	sources := e.deletionSources(edges)
	var aff nodeset.Builder
	for _, x := range sources {
		cols, dists := e.scratch.run(e.g, x, e.horizon, false)
		e.diffRow(x, cols, dists, &aff)
	}
	return aff.Set()
}

// diffRow compares the freshly computed row of x against the stored one,
// recording affected endpoints, installs the new row in fwd and mirrors
// deltas into rev.
func (e *Engine) diffRow(x uint32, cols []uint32, dists []Dist, aff *nodeset.Builder) {
	// Snapshot the old row (SetRow would clear it before we finish diffing).
	e.oldCols = e.oldCols[:0]
	e.oldDists = e.oldDists[:0]
	e.fwd.Row(x, func(c uint32, d Dist) bool {
		e.oldCols = append(e.oldCols, c)
		e.oldDists = append(e.oldDists, d)
		return true
	})
	i, j := 0, 0
	changed := false
	for i < len(e.oldCols) || j < len(cols) {
		switch {
		case j == len(cols) || (i < len(e.oldCols) && e.oldCols[i] < cols[j]):
			// entry disappeared
			c := e.oldCols[i]
			aff.Add(x)
			aff.Add(c)
			changed = true
			e.rev.Set(c, x, Inf)
			i++
		case i == len(e.oldCols) || cols[j] < e.oldCols[i]:
			// entry appeared (possible when a deletion batch is applied
			// after insertions in the same reconciliation)
			c := cols[j]
			aff.Add(x)
			aff.Add(c)
			changed = true
			e.rev.Set(c, x, dists[j])
			j++
		default:
			if e.oldDists[i] != dists[j] {
				aff.Add(x)
				aff.Add(cols[j])
				changed = true
				e.rev.Set(cols[j], x, dists[j])
			}
			i++
			j++
		}
	}
	if changed {
		e.fwd.SetRow(x, cols, dists)
	}
}

// Clone returns an engine over g2 (a clone of the engine's graph) with
// copied matrices, so benchmark iterations can mutate independently.
func (e *Engine) Clone(g2 *graph.Graph) *Engine {
	return &Engine{
		g:              g2,
		horizon:        e.horizon,
		fwd:            e.fwd.Clone(),
		rev:            e.rev.Clone(),
		scratch:        newBFSScratch(g2.NumIDs()),
		denseThreshold: e.denseThreshold,
		ellWidth:       e.ellWidth,
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
