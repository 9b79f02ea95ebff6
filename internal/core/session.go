// Package core implements the paper's query-processing algorithms behind
// one Session abstraction:
//
//   - Scratch     — recompute SLen and the match from nothing (the naive
//     baseline every GPNM paper measures against);
//   - INC-GPNM    — the incremental baseline [13]: one SLen sync plus one
//     amendment pass per update, data and pattern alike;
//   - EH-GPNM     — the TKDE baseline [14]: Type II elimination over the
//     data updates only (per-update Aff_N, an EH-Tree over ΔGD), one
//     amendment pass per data root, and still one pass per pattern
//     update;
//   - UA-GPNM-NoPar — this paper's algorithm without §V's partition:
//     apply the batch, then a single amendment pass seeded by the batch
//     change log;
//   - UA-GPNM     — the same pass on partition's ball plane, whose rows
//     are bounded BFS balls read only as deep as the matcher asks.
//
// Algorithm 6's detection (DER-I/II/III, the full EH-Tree over both
// update streams) exists to cut passes; with one pass seeded by a union
// it cannot change the answer, so the UA methods do not run it.
// Session.Elimination computes it for whoever asks — the paper's tables
// and Fig. 3 read the tree there.
//
// A Session owns a data graph, a pattern, a distance engine and the
// current match. NewSession answers the initial query (IQuery); each
// SQuery call processes one update batch and delivers the subsequent
// query's result, maintaining all state incrementally. Every method
// produces the same matches — only the work differs — which the package
// tests enforce against Scratch.
package core

import (
	"fmt"
	"time"

	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/partition"
	"uagpnm/internal/pattern"
	"uagpnm/internal/shortest"
	"uagpnm/internal/simulation"
	"uagpnm/internal/updates"
)

// Method selects a query-processing algorithm.
type Method int

// The five methods of the paper's evaluation (§VII-A). The zero value is
// the paper's own algorithm, so a Config that names no method runs
// UA-GPNM; the baselines are opted into by name.
const (
	UAGPNM Method = iota
	Scratch
	INCGPNM
	EHGPNM
	UAGPNMNoPar
)

// String names the method as the paper does.
func (m Method) String() string {
	switch m {
	case Scratch:
		return "Scratch"
	case INCGPNM:
		return "INC-GPNM"
	case EHGPNM:
		return "EH-GPNM"
	case UAGPNMNoPar:
		return "UA-GPNM-NoPar"
	case UAGPNM:
		return "UA-GPNM"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Methods lists every method in evaluation order.
var Methods = []Method{Scratch, INCGPNM, EHGPNM, UAGPNMNoPar, UAGPNM}

// Config parameterises a Session. Only the global SLen engine, which
// the baselines run on, fans its Build across the workpool, as wide as
// GOMAXPROCS (the hub's amendment fan is the pool's other user). A
// UA-GPNM session's ball plane has no partitions: it builds rows as
// reads ask for them and applies a batch as four serial sweeps, and the
// amendment pass is sequential.
type Config struct {
	// Method selects the algorithm (the zero value is UAGPNM).
	Method Method
	// Horizon caps SLen at this many hops (0 = exact distances). It is
	// raised automatically to the pattern's largest finite bound.
	Horizon int
}

// QueryStats records the work of the last SQuery.
type QueryStats struct {
	Duration       time.Duration
	Passes         int // amendment passes run
	DataUpdates    int
	PatternUpdates int
	TreeSize       int // updates indexed in EH-GPNM's tree (0 for Scratch/INC/UA; see Elimination)
	TreeRoots      int // uneliminated updates
	Eliminated     int // |Ue| of the paper's complexity analysis
	SeedNodes      int // seed set size of the UA pass: |change log|, the sources whose forward row moved
	// SeedPairs counts the (pattern node u, change-log member x) pairs
	// the UA pass seeded: x carries u's label and its depth δ(x) is at
	// most maxOut(u), the largest bound on u's out-edges (simulation.Amend).
	SeedPairs int
	// SLenSync is the wall time of the SLen substrate synchronisation
	// (structural application + overlay/matrix maintenance + change-log
	// assembly); SLenSyncs counts the data updates synchronised into the
	// substrate. Together they expose the maintenance cost the
	// standing-query hub amortises across patterns (internal/hub): n
	// independent sessions pay n×SLenSyncs for the same batch, a hub
	// pays it once.
	SLenSync  time.Duration
	SLenSyncs int
}

// Session is one evolving GPNM query: graph, pattern, SLen engine and
// the current match, processed by a fixed Method.
type Session struct {
	Method Method
	G      *graph.Graph
	P      *pattern.Graph
	Engine shortest.DistanceEngine
	Match  *simulation.Match
	Stats  QueryStats

	cfg Config
}

// NewSession builds the engine, answers the initial query (IQuery) and
// returns the ready session. The graph and pattern are owned by the
// session afterwards (Fork for independent copies).
func NewSession(g *graph.Graph, p *pattern.Graph, cfg Config) *Session {
	if cfg.Horizon != 0 {
		if b := p.MaxFiniteBound(); b > cfg.Horizon {
			cfg.Horizon = b
		}
	}
	s := &Session{Method: cfg.Method, G: g, P: p, cfg: cfg}
	s.Engine = newEngine(g, cfg)
	s.Engine.Build()
	s.readFailover(func() { s.Match = simulation.Run(p, g, s.Engine) })
	return s
}

// readFailover runs a read-only engine fan under the sharded
// substrate's failover protection (a no-op passthrough for in-process
// engines): a shard worker lost between batches surfaces on the next
// read, and this turns it into a rebuild-and-retry instead of a fatal
// loss. Sessions are single-goroutine, so the exclusive-reader
// contract of partition.Engine.WithReadFailover holds trivially; every
// fn passed here overwrites its outputs wholesale.
func (s *Session) readFailover(fn func()) {
	if pe, ok := s.Engine.(*partition.Engine); ok {
		pe.WithReadFailover(fn)
		return
	}
	fn()
}

// NewSessionWith wraps a pre-built engine (Build()-consistent with g)
// into a session and answers IQuery — the experiment harness uses it to
// amortise engine construction across many sessions via CloneFor.
func NewSessionWith(g *graph.Graph, p *pattern.Graph, eng shortest.DistanceEngine, cfg Config) *Session {
	if cfg.Horizon != 0 {
		if b := p.MaxFiniteBound(); b > cfg.Horizon {
			cfg.Horizon = b
		}
		eng.EnsureHorizon(cfg.Horizon)
	}
	s := &Session{Method: cfg.Method, G: g, P: p, Engine: eng, cfg: cfg}
	s.readFailover(func() { s.Match = simulation.Run(p, g, eng) })
	return s
}

// newEngine builds the SLen substrate cfg.Method selects over g — the
// partition engine's ball plane for UAGPNM, the global matrix engine for
// the four baseline methods — without answering any query. Both are
// in-process: a sharded substrate is the standing-query hub's
// (internal/hub), and a session runs on one only through NewSessionWith.
func newEngine(g *graph.Graph, cfg Config) shortest.DistanceEngine {
	if cfg.Method == UAGPNM {
		return partition.NewEngine(g, cfg.Horizon)
	}
	return shortest.NewEngine(g, cfg.Horizon)
}

// Fork returns an independent copy of the session (deep-copied graph,
// pattern, engine and match) so benchmark iterations can each process
// their own batch from the same initial state.
func (s *Session) Fork() *Session {
	g2 := s.G.Clone()
	p2 := s.P.Clone()
	return &Session{
		Method: s.Method,
		G:      g2,
		P:      p2,
		Engine: s.Engine.CloneFor(g2),
		Match:  s.Match.Clone(p2),
		cfg:    s.cfg,
	}
}

// Result returns the GPNM node matching result for pattern node u
// (empty unless every pattern node is matched — BGS semantics).
func (s *Session) Result(u pattern.NodeID) nodeset.Set { return s.Match.Nodes(u) }

// Close releases the session's substrate shards (remote shard clients
// drop their caches and idle connections; in-process substrates are a
// no-op). The session must not be queried afterwards.
func (s *Session) Close() error {
	if pe, ok := s.Engine.(*partition.Engine); ok {
		return pe.Close()
	}
	return nil
}

// SQuery processes one update batch with the session's method and
// returns the subsequent query's match. Batches must have been generated
// against (or be consistent with) the session's current graph/pattern
// state: SQuery panics on a batch updates.Batch.Check refuses, before
// it touches the session.
//
// The returned match is the session's live state (this is the internal
// API; the bench harness calls it in tight loops). Callers that hand
// results across a trust boundary take a copy — the public
// uagpnm.Session.SQuery returns a defensive clone, per its documented
// immutability contract. Sets materialised from a match (Nodes,
// SimulationSet) are fresh on every call either way.
func (s *Session) SQuery(b updates.Batch) *simulation.Match {
	if err := b.Check(uint32(s.G.NumIDs()), uint32(s.P.NumIDs())); err != nil {
		panic("core: " + err.Error())
	}
	start := time.Now()
	s.Stats = QueryStats{DataUpdates: len(b.D), PatternUpdates: len(b.P)}
	switch s.Method {
	case Scratch:
		s.runScratch(b)
	case INCGPNM:
		s.runINC(b)
	case EHGPNM:
		s.runEH(b)
	case UAGPNMNoPar, UAGPNM:
		s.runUA(b)
	default:
		panic("core: unknown method")
	}
	s.Stats.Duration = time.Since(start)
	return s.Match
}

// ensureHorizonFor widens the engine to cover the updated pattern.
func (s *Session) ensureHorizonFor(p *pattern.Graph) {
	if b := p.MaxFiniteBound(); b > 0 {
		s.Engine.EnsureHorizon(b)
	}
}
