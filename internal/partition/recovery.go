package partition

import (
	"errors"
	"fmt"
	"time"

	"uagpnm/internal/nodeset"
	"uagpnm/internal/workpool"
)

// This file is the failover controller of the sharded §V substrate:
// the piece that turns "a gpnm-shard worker died" from a session-ending
// poison into a repaired assignment and a retried phase.
//
// Why the coordinator can always recover: it never delegates state it
// cannot reproduce. The data graph, the partition membership, the
// bridge bookkeeping and the overlay all live coordinator-side; a shard
// only holds the partition subgraphs and intra SLen engines *derived*
// from them (engineSource reads a partition's induced subgraph off the
// data graph). Coordinator staging also strictly precedes every shard
// flush, so at any fault the data graph reflects the full in-flight
// batch and a rebuild from it is exactly the state the dead worker would
// have reached.
//
// The recovery sequence, run from the single-writer mutation context
// (no concurrent readers exist during a mutation, so the shard table
// may be edited freely):
//
//  1. Quarantine. The observed-faulty slot is dead by decree (even a
//     worker that answers pings is untrustworthy after a failed call —
//     it may have diverged); every other alive slot is probed with a
//     short Ping and joins the dead set on failure.
//  2. Promote. Each dead slot takes the next live spare, keeping its
//     slot index — in-flight ops carry Op.Shard routing, and a stable
//     index keeps it meaningful. Promoted spares get a full Build of
//     their owned partitions from the data graph as it stands,
//     fenced at the current op epoch so a subsequent retry of the
//     in-flight flush cannot double-apply.
//  3. Reassign. Partitions on slots that stayed dead move round-robin
//     onto the survivors, which absorb them via Rebuild (the added
//     partitions' snapshots; their other engines and fence survive, and
//     the epoch fence reconciles whether or not they had applied the
//     in-flight flush before the loss).
//  4. Compensate. The dead workers' in-flight affected sets are gone,
//     so every partition they owned has its bridge anchors added to
//     the batch's dirty set — a conservative superset that makes the
//     overlay reconciliation recompute those rows from scratch.
//
// The caller then retries the faulted phase against the repaired
// assignment. Terminal poison (shard.ErrSubstrateLost) remains the
// fallback when nothing survives or the per-mutation budget is spent.

// WithReadFailover runs a read-only phase with shard losses repairable:
// a worker lost mid-read is quarantined, its partitions rebuilt from
// the data graph (identical distances — reads mutate
// nothing, so no op replay or overlay compensation is needed), and fn
// is retried against the repaired assignment. This extends failover
// beyond the mutation phases to the read fan-outs that bracket them —
// a hub's initial query on Register, the per-pattern detection and
// amendment fan of a batch — which is where a loss surfaces when it
// happens between batches.
//
// Caller contract: the caller must hold exclusive access to the engine
// (no other goroutine reading it — the engine edits the shard table
// during recovery), fn must not mutate the engine, and fn must be
// idempotent — it re-runs wholesale after a repair, so it must
// overwrite its outputs rather than accumulate. Each call is its own
// failover boundary (a fresh failoverBudget). On exhaustion it panics
// with the sticky loss exactly like the query surface; convert with
// RecoverSubstrateLoss at an error boundary.
func (e *Engine) WithReadFailover(fn func()) { e.sub.readFailover(fn) }

func (sv *sectionV) readFailover(fn func()) {
	if !sv.remote {
		fn() // nothing to lose in-process
		return
	}
	sv.ensureUsable()
	sv.resetFailoverBudget()
	sv.withFailover(nil, fn)
}

// runRecoverable executes one failover-protected phase, converting a
// repairable *shardFault panic into a return value. Any other panic —
// including the sticky poison — is re-raised.
func (sv *sectionV) runRecoverable(phase func()) (f *shardFault) {
	sv.recoverable.Store(true)
	defer sv.recoverable.Store(false)
	defer func() {
		if r := recover(); r != nil {
			if sf, ok := r.(*shardFault); ok {
				f = sf
				return
			}
			//lint:allow panic re-raise of a foreign panic; only *shardFault unwinds belong to this seam
			panic(r)
		}
	}()
	phase()
	return nil
}

// withFailover runs phase, repairing the shard assignment and retrying
// on loss until the phase completes. Each repair spends one unit of the
// boundary's failover budget; the engine poisons when the budget is
// spent or the repair itself fails. It is the only way into
// recoverShards: a worker lost while the engine is idle is met, and
// repaired, by the next phase or read fan that calls it. Phases must be
// idempotent against the coordinator's own state (every protected phase
// is: reads overwrite their outputs, the op flush is epoch-fenced, dirty
// accumulation has set semantics). dirty, when non-nil, receives the
// conservative bridge anchors of partitions whose in-flight affected
// sets died with their worker.
func (sv *sectionV) withFailover(dirty *nodeset.Builder, phase func()) {
	if !sv.remote {
		// The in-process shard never fails operationally.
		phase()
		return
	}
	for {
		f := sv.runRecoverable(phase)
		if f == nil {
			return
		}
		if sv.recoveryBudget <= 0 {
			sv.poison(f.err)
		}
		sv.recoveryBudget--
		sv.recoveringFlag.Store(true)
		sv.metrics.Counter("gpnm_recovery_retries_total").Inc()
		recoveryStart := time.Now()
		err := sv.recoverShards(f, dirty)
		sv.span("recovery", recoveryStart)
		sv.recoveringFlag.Store(false)
		if err != nil {
			// Keep the original transport error in the chain: callers
			// assert errors.As(*shard.TransportError) on terminal losses.
			sv.poison(fmt.Errorf("failover failed (%v): %w", err, f.err))
		}
		sv.recoveredN.Add(1)
	}
}

// recoverShards repairs the shard assignment after slot f.idx faulted.
// It loops until a pass completes with every build/rebuild succeeding —
// workers that die during recovery simply join the dead set of the next
// pass — or until no serving capacity remains.
func (sv *sectionV) recoverShards(f *shardFault, dirty *nodeset.Builder) error {
	suspect := map[int]bool{f.idx: true}
	lostParts := map[int]bool{} // partitions owned by a slot at the moment it died
	for pass := 0; ; pass++ {
		if pass > len(sv.shards)+len(sv.spares)+1 {
			return errors.New("recovery did not converge")
		}
		// 1. Quarantine suspects and probe the remaining alive slots —
		// probes fan in parallel so detection costs one Ping timeout,
		// not one per worker.
		probeStart := time.Now()
		probe := sv.aliveIndices()
		probeDead := make([]bool, len(probe))
		workpool.ForEachBlocking(len(probe), func(k int) {
			i := probe[k]
			probeDead[k] = suspect[i] || sv.shards[i].Ping() != nil
		})
		for k, i := range probe {
			if !probeDead[k] {
				continue
			}
			sv.shardAlive[i] = false
			//lint:allow faultseam best-effort close of a quarantined slot; the controller already treats it as dead
			_ = sv.shards[i].Close()
			sv.metrics.Counter("gpnm_recovery_quarantined_total").Inc()
			for p, s := range sv.shardOf {
				if int(s) == i {
					lostParts[p] = true
				}
			}
		}
		suspect = map[int]bool{}
		sv.span("recovery_probe", probeStart)

		// 2. Promote spares into dead slots (slot index preserved).
		fresh := map[int]bool{}
		for i := range sv.shards {
			if sv.shardAlive[i] {
				continue
			}
			for len(sv.spares) > 0 {
				sp := sv.spares[0]
				sv.spares = sv.spares[1:]
				if sp.Ping() != nil {
					//lint:allow faultseam best-effort close of a dead spare before trying the next one
					_ = sp.Close()
					continue
				}
				sv.shards[i] = sp
				sv.shardAlive[i] = true
				fresh[i] = true
				sv.metrics.Counter("gpnm_recovery_promoted_total").Inc()
				break
			}
		}
		alive := sv.aliveIndices()
		if len(alive) == 0 {
			return errors.New("no surviving or spare shard")
		}

		// 3. Reassign partitions stranded on dead slots to survivors.
		moved := make(map[int][]int)
		for p, s := range sv.shardOf {
			if sv.shardAlive[s] {
				continue
			}
			t := alive[p%len(alive)]
			sv.shardOf[p] = int32(t)
			moved[t] = append(moved[t], p)
		}

		// 4. Build promoted spares (every owned partition) and rebuild
		// absorbed partitions on survivors, all from the data graph
		// as it stands. The fence in cfg.Epoch marks
		// those snapshots as already containing the in-flight flush.
		rebuildStart := time.Now()
		cfg := sv.shardConfig()
		src := engineSource{sv}
		owned := sv.groupByShard()
		ok := true
		for _, i := range alive {
			var err error
			switch {
			case fresh[i]:
				//lint:allow faultseam the recovery controller IS the seam here: a failed rebuild re-marks the slot suspect for the next round
				err = sv.shards[i].Build(cfg, i, owned[i], src)
			case len(moved[i]) > 0:
				//lint:allow faultseam the recovery controller IS the seam here: a failed rebuild re-marks the slot suspect for the next round
				err = sv.shards[i].Rebuild(cfg, i, moved[i], src)
			default:
				continue
			}
			sv.metrics.Counter("gpnm_recovery_rebuilds_total").Inc()
			if err != nil {
				suspect[i] = true
				ok = false
			}
		}
		sv.span("recovery_rebuild", rebuildStart)
		if !ok {
			continue
		}

		// 5. Conservative compensation for the dead workers' lost
		// affected sets: dirty every bridge anchor of every partition
		// they owned, so the overlay reconciliation recomputes those
		// rows from scratch. Needed only when an op flush was in
		// flight (dirty != nil there); read-phase recoveries rebuild
		// identical intra state and leave the overlay valid.
		if dirty != nil {
			for p := range lostParts {
				pt := sv.part.parts[p]
				for _, x := range pt.exits {
					dirty.Add(x)
				}
				for _, x := range pt.entries {
					dirty.Add(x)
				}
			}
		}
		// Rebuilt engines mean previously cached stitched rows may have
		// been built against a now-dead worker mid-phase; drop them so
		// the retry assembles everything against the repaired fleet.
		sv.invalidate()
		return nil
	}
}
