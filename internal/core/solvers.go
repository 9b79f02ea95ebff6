package core

import (
	"time"

	"uagpnm/internal/ehtree"
	"uagpnm/internal/elim"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/partition"
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

// applyData advances graph and engine by ΔGD, collecting each update's
// Aff_N (DER-II fused with SLen maintenance, Algorithm 2's in-place
// SLen_new update) and their union, the batch change log, and records the
// synchronisation in Stats. The partitioned engine reconciles its bridge
// overlay once for the whole batch (§VI's batching); the global engine,
// which is what the baselines run on, goes update by update.
func (s *Session) applyData(d []updates.Update) (affSets []nodeset.Set, changeLog nodeset.Set) {
	slenStart := time.Now()
	if pe, ok := s.Engine.(*partition.Engine); ok {
		var err error
		affSets, changeLog, err = pe.ApplyDataBatch(d, s.G)
		if err != nil {
			// A Session has no error surface (it is the single-query,
			// in-process API); substrate loss is fatal to it. The hub and
			// the Service layer recover this into an error return.
			panic(err)
		}
	} else {
		affSets = make([]nodeset.Set, len(d))
		var log nodeset.Builder
		for i, u := range d {
			affSets[i] = updates.ApplyData(u, s.G, s.Engine)
			log.AddAll(affSets[i])
		}
		changeLog = log.Set()
	}
	s.Stats.SLenSync = time.Since(slenStart)
	s.Stats.SLenSyncs = len(d)
	return affSets, changeLog
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
	affSets, changeLog := s.applyData(b.D)
	tree := ehtree.Build(elim.AffSetsFromApplication(b.D, affSets), nil, nil)
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

// runUA is UA-GPNM (and its no-partition ablation) as served: apply ΔGD,
// apply ΔGP to a pattern clone, and run one amendment pass seeded by the
// batch change log. Algorithm 6's detection is not on this path — in a
// single pass seeded by a union it cannot change the answer (see
// Elimination). With Method == UAGPNM the session's engine is the
// label-partitioned one (§V).
func (s *Session) runUA(b updates.Batch) {
	_, changeLog := s.applyData(b.D)
	newP := s.P.Clone()
	updates.ApplyPatternBatch(b.P, newP)
	s.ensureHorizonFor(newP)
	// Read-only against (s.Match, frozen post-batch engine), so a failover
	// retry — a shard worker lost since the last batch surfaces on these
	// reads — recomputes cleanly; session state commits below.
	var m *simulation.Match
	s.readFailover(func() {
		m = simulation.Amend(s.Match, newP, s.G, s.Engine, changeLog)
	})
	s.Match, s.P = m, newP
	s.Stats.SeedNodes = changeLog.Len()
	s.Stats.Passes = 1
}

// Elimination runs Algorithm 6's detection for b against the session's
// current state and returns the EH-Tree of Fig. 3: DER-I candidate sets on
// the pre-batch match, DER-II affected sets fused with the application of
// ΔGD, DER-III against the post-batch SLen, the tree over both update
// streams. It works on a Fork and never advances the session, so call it
// before the SQuery that processes b.
//
// It is an analysis, not a step of SQuery: in the paper the tree cuts the
// number of amendment passes (INC: one per update; EH: one per root), but
// UA-GPNM here runs one pass seeded by a union, where containment
// elimination is the identity — a child's set is inside its root's, an
// Aff_N is inside the change log, and simulation.Amend derives ΔGP's
// effect from the pattern diff without Can_N seeds.
func (s *Session) Elimination(b updates.Batch) *ehtree.Tree {
	// A fork's engine is in-process even when the session's is sharded
	// (partition.Engine.CloneFor), so no read below needs failover.
	f := s.Fork()
	cans := elim.CanSets(b.P, f.Match, f.P, f.G, f.Engine)
	affSets, _ := f.applyData(b.D)
	// Widen the horizon before DER-III asks about new bounds.
	newP := f.P.Clone()
	updates.ApplyPatternBatch(b.P, newP)
	f.ensureHorizonFor(newP)
	return ehtree.Build(elim.AffSetsFromApplication(b.D, affSets), cans, func(up, ud elim.Info) bool {
		return elim.CrossEliminates(up, ud, f.Match, f.Engine)
	})
}
