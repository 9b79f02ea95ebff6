package shortest

import (
	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/updates"
)

// Oracle is the read side of an SLen substrate: everything the matcher
// and the elimination detectors need to test bounded path lengths. The
// matcher asks only set-filtered ball questions (ForwardBallIn,
// ReverseBallIn), so an engine can answer them without a call per ball
// entry and stop reading where the answer is known; the point reads and
// the unfiltered balls serve everything else.
type Oracle interface {
	// Dist returns d(u,v) in hops (Inf beyond the horizon / no path).
	Dist(u, v uint32) Dist
	// WithinHops reports d(u,v) ≤ k; k must be ≤ Horizon when capped.
	WithinHops(u, v uint32, k int) bool
	// Reachable reports d(u,v) < Inf (within the horizon when capped).
	Reachable(u, v uint32) bool
	// ForwardBall visits {v : d(u,v) ≤ k}, u included at 0: each node
	// once with its distance, in an order the implementation chooses
	// (the global engine goes by ascending id, the partition engine
	// nearest first). Callers probe for existence or collect a set;
	// none may rely on the order. fn returning false stops the visit.
	ForwardBall(u uint32, k int, fn func(v uint32, d Dist) bool)
	// ReverseBall visits {x : d(x,v) ≤ k}, v included at 0, under the
	// same contract.
	ReverseBall(v uint32, k int, fn func(x uint32, d Dist) bool)
	// ForwardBallIn visits the members of set within k of u — the ball
	// filtered by set, u included when set holds it — each once, in an
	// order the implementation chooses. It is the matcher's question ("is
	// some candidate within k?", "which candidates reach v?"): the engine
	// tests membership in its own scan, with no call per ball entry, and
	// may stop reading as soon as fn returns false.
	ForwardBallIn(u uint32, k int, set *nodeset.Bits, fn func(v uint32) bool)
	// ReverseBallIn visits the members of set within k hops to v under
	// the same contract.
	ReverseBallIn(v uint32, k int, set *nodeset.Bits, fn func(x uint32) bool)
	// Horizon reports the hop cap (0 = exact).
	Horizon() int
	// Exact reports whether distances beyond any bound are represented.
	Exact() bool
}

// DistanceEngine is a maintainable SLen substrate: an Oracle plus the
// one mutation that keeps it current, ApplyData, whose change log the
// amendment seeds on. Two implementations exist: the global Engine in
// this package, which synchronises update by update (the baselines'
// maintenance), and the partition engine in internal/partition (its ball
// plane, or §V of the paper behind a fleet), which takes ΔGD as one
// batch. UA-GPNM runs on the partition engine; every other solver runs
// on the global one. The per-update affected sets of DER-II (the paper's
// Aff_N) are not part of the mutation: the global engine hands them out
// beside it (Engine.ApplyDataAffected), and for the partition engine they
// are a function of the graph before and after the batch
// (partition.AffectedSets: one Sweep per update half).
type DistanceEngine interface {
	Oracle
	// Build (re)computes the substrate from the graph.
	Build()
	// Graph returns the underlying data graph.
	Graph() *graph.Graph
	// ApplyData applies the data updates ds to g — the engine's own
	// graph — in order, synchronises the substrate, and returns the batch
	// change log the amendment seeds on: the forward log — a superset of
	// the source of every pair whose distance moved plus every node the
	// batch inserted or deleted, the nodes whose forward row d(x,·) moved
	// — with each member's depth δ(x) ≤ min(old, new) over its moved pairs
	// (ChangeLog). A pattern update in ds is a programming error and
	// panics. Only a sharded substrate that loses its workers returns an
	// error.
	ApplyData(ds []updates.Update, g *graph.Graph) (ChangeLog, error)
	// EnsureHorizon widens a capped substrate to cover bound k.
	EnsureHorizon(k int)
	// CloneFor returns an independent copy operating on g2, a clone of
	// the engine's graph.
	CloneFor(g2 *graph.Graph) DistanceEngine
}

// CloneFor implements DistanceEngine for the global engine.
func (e *Engine) CloneFor(g2 *graph.Graph) DistanceEngine { return e.Clone(g2) }

// compile-time interface check
var _ DistanceEngine = (*Engine)(nil)
