package core

import (
	"runtime"
	"time"

	"uagpnm/internal/ehtree"
	"uagpnm/internal/elim"
	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/partition"
	"uagpnm/internal/pattern"
	"uagpnm/internal/shortest"
	"uagpnm/internal/simulation"
	"uagpnm/internal/updates"
)

// runScratch answers the subsequent query by full recomputation: apply
// the updates structurally, rebuild SLen, rerun the matching fixpoint.
func (s *Session) runScratch(b updates.Batch) {
	updates.ApplyDataStructural(b.D, s.G)
	newP := s.P.Clone()
	updates.ApplyPatternBatch(b.P, newP)
	s.P = newP
	if s.cfg.Horizon != 0 {
		if bnd := newP.MaxFiniteBound(); bnd > s.cfg.Horizon {
			s.Engine.EnsureHorizon(bnd)
		}
	}
	slenStart := time.Now()
	s.Engine.Build()
	s.Stats.SLenSync = time.Since(slenStart)
	s.Stats.SLenSyncs = len(b.D)
	s.Match = simulation.Run(s.P, s.G, s.Engine)
	s.Stats.Passes = 1
}

// runINC is the INC-GPNM baseline [13]: every update — data or pattern —
// gets its own SLen synchronisation and amendment pass.
func (s *Session) runINC(b updates.Batch) {
	for _, u := range b.D {
		slenStart := time.Now()
		aff := updates.ApplyData(u, s.G, s.Engine)
		s.Stats.SLenSync += time.Since(slenStart)
		s.Stats.SLenSyncs++
		s.Match = simulation.Amend(s.Match, s.P, s.G, s.Engine, aff)
		s.Stats.Passes++
	}
	for _, u := range b.P {
		newP := s.P.Clone()
		updates.ApplyPattern(u, newP)
		s.ensureHorizonFor(newP)
		s.Match = simulation.Amend(s.Match, newP, s.G, s.Engine, nil)
		s.P = newP
		s.Stats.Passes++
	}
}

// runEH is the EH-GPNM baseline [14]: Type II elimination over the data
// updates only. SLen maintenance is fused with Aff_N collection (one
// synchronisation sweep in update order, as in Algorithm 2), the EH-Tree
// over ΔGD groups the updates, and one amendment pass runs per root —
// the first pass additionally carries the batch change log, which makes
// it exact; later root passes re-verify their root's region (the
// redundancy that separates EH-GPNM from UA-GPNM). Pattern updates still
// get one pass each.
func (s *Session) runEH(b updates.Batch) {
	slenStart := time.Now()
	affSets := make([]nodeset.Set, len(b.D))
	var log nodeset.Builder
	for i, u := range b.D {
		affSets[i] = updates.ApplyData(u, s.G, s.Engine)
		log.AddAll(affSets[i])
	}
	changeLog := log.Set()
	s.Stats.SLenSync = time.Since(slenStart)
	s.Stats.SLenSyncs = len(b.D)
	affInfos := elim.AffSetsFromApplication(b.D, affSets)
	tree := ehtree.Build(affInfos, nil, nil)
	s.Stats.TreeSize = tree.Size()
	s.Stats.TreeRoots = len(tree.Roots)
	s.Stats.Eliminated = tree.EliminatedCount()

	first := true
	for _, root := range tree.RootInfos() {
		seeds := root.Set
		if first {
			seeds = seeds.Union(changeLog)
			first = false
		}
		s.Match = simulation.Amend(s.Match, s.P, s.G, s.Engine, seeds)
		s.Stats.Passes++
	}
	if first && len(b.D) > 0 {
		// No roots (every Aff_N empty) but updates applied: one pass on
		// the change log keeps the result exact.
		s.Match = simulation.Amend(s.Match, s.P, s.G, s.Engine, changeLog)
		s.Stats.Passes++
	}
	for _, u := range b.P {
		newP := s.P.Clone()
		updates.ApplyPattern(u, newP)
		s.ensureHorizonFor(newP)
		s.Match = simulation.Amend(s.Match, newP, s.G, s.Engine, nil)
		s.P = newP
		s.Stats.Passes++
	}
}

// runUA is Algorithm 6 — UA-GPNM (and its no-partition ablation): DER-I
// candidate sets before the batch, DER-II affected sets fused with the
// SLen synchronisation, DER-III against the updated SLen, the full
// EH-Tree over both streams, and a single amendment pass seeded by the
// uneliminated (root) sets plus the batch change log. With Method ==
// UAGPNM the session's engine is the label-partitioned one (§V).
func (s *Session) runUA(b updates.Batch) {
	// DER-I on the pre-update state. Like every read fan below, it runs
	// under the substrate's read failover when sharded: a worker lost
	// between batches surfaces here first, and gets rebuilt-and-retried
	// instead of killing the session.
	var canInfos []elim.Info
	s.readFailover(func() { canInfos = elim.CanSets(b.P, s.Match, s.P, s.G, s.Engine) })

	// Apply ΔGD, fusing DER-II with SLen maintenance (Algorithm 2's
	// in-place SLen_new update). The partitioned engine reconciles its
	// bridge overlay once for the whole batch (§VI's batching).
	slenStart := time.Now()
	var affSets []nodeset.Set
	var changeLog nodeset.Set
	if pe, ok := s.Engine.(*partition.Engine); ok {
		var err error
		affSets, changeLog, err = pe.ApplyDataBatch(b.D, s.G)
		if err != nil {
			// A Session has no error surface (it is the single-query,
			// in-process API); substrate loss is fatal to it. The hub and
			// the Service layer recover this into an error return.
			panic(err)
		}
	} else {
		affSets = make([]nodeset.Set, len(b.D))
		var log nodeset.Builder
		for i, u := range b.D {
			affSets[i] = updates.ApplyData(u, s.G, s.Engine)
			log.AddAll(affSets[i])
		}
		changeLog = log.Set()
	}
	s.Stats.SLenSync = time.Since(slenStart)
	s.Stats.SLenSyncs = len(b.D)
	affInfos := elim.AffSetsFromApplication(b.D, affSets)

	// Apply ΔGP to a pattern clone; widen the horizon before DER-III asks
	// about new bounds.
	newP := s.P.Clone()
	updates.ApplyPatternBatch(b.P, newP)
	s.ensureHorizonFor(newP)

	// DER-III + EH-Tree + the single amendment pass (Fig. 3, §IV-C).
	// Read-only against (s.Match, frozen post-batch engine), so the
	// failover retry recomputes cleanly; session state commits below.
	var pass UAPassResult
	s.readFailover(func() {
		pass = RunUAPass(s.Match, newP, s.G, s.Engine, affInfos, canInfos, changeLog, s.amendWorkers())
	})
	s.Stats.TreeSize = pass.TreeSize
	s.Stats.TreeRoots = pass.TreeRoots
	s.Stats.Eliminated = pass.Eliminated
	s.Stats.SeedNodes = pass.SeedNodes
	s.Match = pass.Match
	s.P = newP
	s.Stats.Passes = 1
}

// amendWorkers is the fan width of the session's own amendment pass.
// A single session's pass is the pool's only consumer while it runs, so
// it gets the whole configured bound; 0 resolves like the engine pool
// (GOMAXPROCS), 1 — the UA-GPNM-NoPar configuration — stays the
// bit-for-bit sequential drain.
func (s *Session) amendWorkers() int {
	if s.cfg.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return s.cfg.Workers
}

// UAPassResult is the outcome of one pattern's RunUAPass.
type UAPassResult struct {
	Match      *simulation.Match
	TreeSize   int
	TreeRoots  int
	Eliminated int
	SeedNodes  int
}

// RunUAPass is the per-pattern tail of Algorithm 6, shared by runUA and
// the standing-query hub (internal/hub): DER-III cross elimination over
// the already-computed Can/Aff sets, the EH-Tree over both streams, and
// one amendment pass seeded by the uneliminated root sets plus the
// batch change log. oldMatch and canInfos are pre-batch state; newP,
// the engine and affInfos/changeLog are post-batch. It only reads its
// inputs (the engine within the read-epoch contract), so many patterns
// can run their passes concurrently over one shared substrate.
// amendWorkers fans the amendment pass's removal fixpoint (Phase B,
// striped by data node) across up to that many goroutines; Phase A, the
// pair closure, always runs on the calling goroutine. ≤ 1 is the
// bit-for-bit sequential drain. Callers splitting a worker
// pool across concurrent passes divide the pool here.
func RunUAPass(oldMatch *simulation.Match, newP *pattern.Graph, g *graph.Graph,
	eng shortest.DistanceEngine, affInfos, canInfos []elim.Info, changeLog nodeset.Set,
	amendWorkers int) UAPassResult {
	tree := ehtree.Build(affInfos, canInfos, func(up, ud elim.Info) bool {
		return elim.CrossEliminates(up, ud, oldMatch, eng)
	})
	seeds := uaSeeds(tree.RootInfos(), changeLog)
	return UAPassResult{
		Match:      simulation.AmendN(oldMatch, newP, g, eng, seeds, amendWorkers),
		TreeSize:   tree.Size(),
		TreeRoots:  len(tree.Roots),
		Eliminated: tree.EliminatedCount(),
		SeedNodes:  seeds.Len(),
	}
}

// uaSeeds is what the one amendment pass for the uneliminated updates
// seeds on: the root sets (children are covered by them) and the change
// log, which guarantees every combined effect is seeded. Only the
// pattern-side (Can-set) roots add to the change log: it already is the
// union of the applied data updates' affected sets, and a delete the
// batch found already gone took its ball where the delete that removed
// its edge or node took a larger one.
func uaSeeds(roots []elim.Info, changeLog nodeset.Set) nodeset.Set {
	var can nodeset.Builder
	for _, root := range roots {
		if !root.U.Kind.IsData() {
			can.AddAll(root.Set)
		}
	}
	if can.Len() == 0 {
		return changeLog
	}
	return changeLog.Union(can.Set())
}
