package core

import (
	"time"

	"uagpnm/internal/ehtree"
	"uagpnm/internal/elim"
	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/partition"
	"uagpnm/internal/shortest"
	"uagpnm/internal/simulation"
	"uagpnm/internal/updates"
)

// runScratch answers the subsequent query by full recomputation: apply
// the updates structurally, rebuild SLen, rerun the matching fixpoint.
func (s *Session) runScratch(b updates.Batch) {
	for _, u := range b.D {
		updates.ApplyGraph(u, s.G)
	}
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
	for i := range b.D {
		log := s.applyData(b.D[i : i+1])
		s.Match, _ = simulation.Amend(s.Match, s.P, s.G, s.Engine, log)
		s.Stats.Passes++
	}
	for _, u := range b.P {
		newP := s.P.Clone()
		updates.ApplyPattern(u, newP)
		s.ensureHorizonFor(newP)
		s.Match, _ = simulation.Amend(s.Match, newP, s.G, s.Engine, shortest.ChangeLog{})
		s.P = newP
		s.Stats.Passes++
	}
}

// applyData advances graph and engine by ΔGD, returns the batch change
// log with its depths, and adds the synchronisation to Stats. The engine
// decides how the batch is synced: the partition engine moves the graph
// and clears the change log's ball rows once for the whole batch (§VI's
// batching); the global engine, which is what the baselines run on, goes
// update by update.
func (s *Session) applyData(d []updates.Update) shortest.ChangeLog {
	start := time.Now()
	log, err := s.Engine.ApplyData(d, s.G)
	if err != nil {
		// A Session has no error surface (it is the single-query,
		// in-process API); substrate loss is fatal to it. The hub and
		// the Service layer recover this into an error return.
		panic(err)
	}
	s.synced(d, start)
	return log
}

// affectedData is applyData with each update's Aff_N as well (DER-II),
// for EH-GPNM's tree and Elimination. The global engine collects them as
// it synchronises, update by update (Algorithm 2's in-place SLen_new
// update); the partition engine keeps no per-update sets, so on it they
// are partition.AffectedSets of pre, the graph before the batch (read
// only there), and the graph after.
func (s *Session) affectedData(d []updates.Update, pre *graph.Graph) ([]nodeset.Set, shortest.ChangeLog) {
	ge, global := s.Engine.(*shortest.Engine)
	if !global {
		horizon := s.Engine.Horizon()
		log := s.applyData(d)
		return partition.AffectedSets(d, pre, s.G, horizon), log
	}
	start := time.Now()
	affSets, log := ge.ApplyDataAffected(d, s.G)
	s.synced(d, start)
	return affSets, log
}

// synced adds the synchronisation of d, begun at start, to Stats.
func (s *Session) synced(d []updates.Update, start time.Time) {
	s.Stats.SLenSync += time.Since(start)
	s.Stats.SLenSyncs += len(d)
}

// runEH is the EH-GPNM baseline [14]: Type II elimination over the data
// updates only. SLen maintenance is fused with Aff_N collection (one
// synchronisation sweep in update order, as in Algorithm 2), the EH-Tree
// over ΔGD groups the updates, and one amendment pass runs per root —
// the first pass additionally carries the batch change log, which makes
// it exact; later root passes re-verify their root's region (the
// redundancy that separates EH-GPNM from UA-GPNM). A root's Aff_N has no
// depths, so its passes seed every member at δ = 0. Pattern updates
// still get one pass each.
func (s *Session) runEH(b updates.Batch) {
	affSets, changeLog := s.affectedData(b.D, nil) // the global engine: no pre-state read
	tree := ehtree.Build(elim.AffSetsFromApplication(b.D, affSets), nil, nil)
	s.Stats.TreeSize = tree.Size()
	s.Stats.TreeRoots = len(tree.Roots)
	s.Stats.Eliminated = tree.EliminatedCount()

	first := true
	for _, root := range tree.RootInfos() {
		seeds := root.Set
		if first {
			seeds = seeds.Union(changeLog.Nodes)
			first = false
		}
		s.Match, _ = simulation.Amend(s.Match, s.P, s.G, s.Engine, shortest.ChangeLog{Nodes: seeds})
		s.Stats.Passes++
	}
	if first && len(b.D) > 0 {
		// No roots (every Aff_N empty) but updates applied: one pass on
		// the change log keeps the result exact.
		s.Match, _ = simulation.Amend(s.Match, s.P, s.G, s.Engine, changeLog)
		s.Stats.Passes++
	}
	for _, u := range b.P {
		newP := s.P.Clone()
		updates.ApplyPattern(u, newP)
		s.ensureHorizonFor(newP)
		s.Match, _ = simulation.Amend(s.Match, newP, s.G, s.Engine, shortest.ChangeLog{})
		s.P = newP
		s.Stats.Passes++
	}
}

// runUA is UA-GPNM (and its no-partition ablation) as served: apply ΔGD,
// apply ΔGP to a pattern clone, and run one amendment pass seeded by the
// batch change log, each member only at the pattern nodes its depth can
// reach. Algorithm 6's detection is not on this path — in a
// single pass seeded by a union it cannot change the answer (see
// Elimination). With Method == UAGPNM the session's engine is the
// partition engine's ball plane.
func (s *Session) runUA(b updates.Batch) {
	changeLog := s.applyData(b.D)
	newP := s.P.Clone()
	updates.ApplyPatternBatch(b.P, newP)
	s.ensureHorizonFor(newP)
	// Read-only against (s.Match, frozen post-batch engine), so a failover
	// retry — a shard worker lost since the last batch surfaces on these
	// reads — recomputes cleanly; session state commits below.
	var m *simulation.Match
	var seedPairs int
	s.readFailover(func() {
		m, seedPairs = simulation.Amend(s.Match, newP, s.G, s.Engine, changeLog)
	})
	s.Match, s.P = m, newP
	s.Stats.SeedNodes = changeLog.Len()
	s.Stats.SeedPairs = seedPairs
	s.Stats.Passes = 1
}

// Elimination runs Algorithm 6's detection for b against the session's
// current state and returns the EH-Tree of Fig. 3: DER-I candidate sets on
// the pre-batch match, DER-II affected sets of ΔGD (affectedData: the
// global engine's own, AffectedSets on the partition engine), DER-III
// against the post-batch SLen, the tree over both update streams. It
// works on a Fork and never advances the session, so call it before the
// SQuery that processes b.
//
// It is an analysis, not a step of SQuery: in the paper the tree cuts the
// number of amendment passes (INC: one per update; EH: one per root), but
// UA-GPNM here runs one pass seeded by a union, where containment
// elimination is the identity — a child's set is inside its root's, an
// Aff_N's forward half is inside the change log (its reverse half names
// targets, which seed nothing), and simulation.Amend derives ΔGP's
// effect from the pattern diff without Can_N seeds. Like SQuery, it
// panics on a batch updates.Batch.Check refuses before it touches
// anything (the fork shares the session's label table).
func (s *Session) Elimination(b updates.Batch) *ehtree.Tree {
	if err := b.Check(uint32(s.G.NumIDs()), uint32(s.P.NumIDs())); err != nil {
		panic("core: " + err.Error())
	}
	// A fork's engine is in-process even when the session's is sharded
	// (partition.Engine.CloneFor), so no read below needs failover.
	f := s.Fork()
	cans := elim.CanSets(b.P, f.Match, f.P, f.G, f.Engine)
	affSets, _ := f.affectedData(b.D, s.G) // s.G is the fork's pre-batch state
	// Widen the horizon before DER-III asks about new bounds.
	newP := f.P.Clone()
	updates.ApplyPatternBatch(b.P, newP)
	f.ensureHorizonFor(newP)
	return ehtree.Build(elim.AffSetsFromApplication(b.D, affSets), cans, func(up, ud elim.Info) bool {
		return elim.CrossEliminates(up, ud, f.Match, f.Engine)
	})
}
