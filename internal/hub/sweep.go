package hub

import (
	"sync"
	"time"

	"uagpnm/internal/partition"
	"uagpnm/internal/workpool"
)

// The proactive shard health sweep: discover dead workers between
// batches instead of paying for the discovery inside one.
//
// Without it, a worker that dies while the hub is idle is found by the
// NEXT batch's first RPC against it — that batch eats the transport
// timeout plus the whole quarantine/promote/rebuild sequence on its
// critical path. The sweep moves both off it: a background ticker
// probes the fleet while the hub is quiet and runs the identical
// repair, so the next batch arrives to an already-healthy assignment.
//
// Locking: only the snapshot and the repair take the hub lock; the
// probes themselves — the slow part, one Ping timeout in the worst
// case — fan in parallel OUTSIDE it, against clients captured by the
// snapshot. A batch that lands mid-probe proceeds normally; if it
// repairs the fleet first, the sweep's stale probes are recognised and
// skipped by Engine.SweepRepair (the snapshot carries the exact client
// probed, not just the slot index).

// StartHealthSweep launches a background sweep of the shard fleet every
// interval and returns its stop function (idempotent; it does not wait
// for an in-flight sweep to finish, but the hub lock makes any such
// sweep harmless). On an unsharded hub the sweeps are no-ops. A sweep
// that exhausts the failover budget poisons the hub exactly like a
// mid-batch loss — the next ApplyBatch surfaces it — and further sweeps
// stop probing.
func (h *Hub) StartHealthSweep(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				// A sweep that outlasts the interval leaves a tick
				// pending next to a closed done; stop wins.
				select {
				case <-done:
					return
				default:
				}
				h.healthSweep()
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// healthSweep runs one probe-and-repair pass. Exposed to tests via the
// stop-less direct call; production drives it from StartHealthSweep.
func (h *Hub) healthSweep() {
	h.obs.Counter("gpnm_sweep_total").Inc()

	h.mu.Lock()
	probes := h.eng.ShardProbes()
	h.mu.Unlock()
	if len(probes) == 0 {
		return
	}

	errs := make([]error, len(probes))
	workpool.ForEach(len(probes), len(probes), func(i int) {
		errs[i] = probes[i].Shard.Ping()
	})
	dead := 0
	for _, err := range errs {
		if err != nil {
			dead++
		}
	}
	if dead == 0 {
		return
	}

	h.mu.Lock()
	defer h.mu.Unlock()
	for i, pingErr := range errs {
		if pingErr == nil {
			continue
		}
		// One repair usually heals the whole fleet (recovery probes every
		// slot itself); later probes of this pass then skip as stale.
		var loss error
		func() {
			defer partition.RecoverSubstrateLoss(&loss)
			if h.eng.SweepRepair(probes[i], pingErr) {
				h.obs.Counter("gpnm_sweep_repaired_total").Inc()
			}
		}()
		if loss != nil {
			// Poisoned: the sticky loss is recorded engine-side and every
			// subsequent call surfaces it. Nothing more to sweep.
			return
		}
	}
}
