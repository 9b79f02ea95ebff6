package simulation

import (
	"sync"
	"sync/atomic"

	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/pattern"
	"uagpnm/internal/shortest"
	"uagpnm/internal/workpool"
)

// This file parallelizes Amend's Phase B. The removal fixpoint converges
// to the unique maximum simulation from any drain order (the same
// argument that makes Run ≡ Amend), so what parallelism must preserve is
// the cascade invariant: whenever a pair is removed, every pair it might
// have been supporting gets rechecked *after* the removal is visible.
// The striped drain below keeps it by making each removal and its
// cascade pushes a single owner-ordered sequence — a recheck either
// lands in the owner's queue behind the removal (channel send → receive
// is a happens-before edge) or dedups against an entry the owner pops
// later, which is also after.
//
// Phase A (amendPlan) is shared with the sequential entry point and
// runs on the calling goroutine: it touches the handful of pairs a
// batch can change, which is too little work to fan.
//
// Phase B stripes the worklist by data node: worker w owns every pair
// (u,v) with stripeOf(v) == w, so removals of a given bit happen on one
// goroutine only, while reads (support probes, cascade filters) come
// from anywhere — hence the atomic Bits accessors. Cross-stripe
// rechecks travel through bounded channels; a worker blocked on a full
// inbox drains its own in the same select, so full-cycle deadlock
// cannot form. Termination is a global quiescence count: every queued
// or in-flight pair holds one token, and the worker that releases the
// last one closes the done channel.

// AmendN is Amend with Phase B fanned across up to workers goroutines.
// workers ≤ 1 is exactly Amend — the bit-for-bit sequential path the
// differential suite pins the parallel result against.
func AmendN(old *Match, newP *pattern.Graph, g *graph.Graph, o shortest.Oracle, seeds nodeset.Set, workers int) *Match {
	if workers <= 1 {
		return Amend(old, newP, g, o, seeds)
	}
	amended, dirty := amendPlan(old, newP, g, o, seeds)
	d := newPDrain(amended, g, o, workers)
	for _, it := range dirty {
		d.seed(it.u, it.v)
	}
	d.run()
	return amended
}

// pdrain runs the removal fixpoint across stripe-owned worklists.
type pdrain struct {
	m       *Match
	g       *graph.Graph
	o       shortest.Oracle
	workers int

	queues []*worklist // one FIFO per stripe, owned by its worker
	inbox  []chan pairItem

	// inflight counts pairs that are queued on some stripe or in
	// transit between stripes; the drain is quiescent exactly when it
	// reaches zero. A worker's cascade pushes increment before its own
	// pair's token releases, so the count cannot dip to zero while work
	// remains.
	inflight  atomic.Int64
	done      chan struct{}
	doneOnce  sync.Once
	abort     chan struct{}
	abortOnce sync.Once
}

const pdrainInboxCap = 256

func newPDrain(m *Match, g *graph.Graph, o shortest.Oracle, workers int) *pdrain {
	d := &pdrain{
		m: m, g: g, o: o, workers: workers,
		queues: make([]*worklist, workers),
		inbox:  make([]chan pairItem, workers),
		done:   make(chan struct{}),
		abort:  make(chan struct{}),
	}
	for i := range d.queues {
		d.queues[i] = newWorklist(m.p.NumIDs(), g.NumIDs())
	}
	for i := range d.inbox {
		d.inbox[i] = make(chan pairItem, pdrainInboxCap)
	}
	return d
}

func (d *pdrain) stripeOf(v uint32) int { return int(v) % d.workers }

// seed enqueues one pair before the workers start (single-goroutine).
func (d *pdrain) seed(u pattern.NodeID, v uint32) {
	if d.queues[d.stripeOf(v)].push(u, v) {
		d.inflight.Add(1)
	}
}

// run drains to quiescence and restores every set's population count.
func (d *pdrain) run() {
	if d.inflight.Load() > 0 {
		workpool.Run(d.workers, d.worker)
	}
	for _, set := range d.m.sets {
		if set != nil {
			set.Recount()
		}
	}
}

func (d *pdrain) worker(w int) {
	defer func() {
		if r := recover(); r != nil {
			// Unblock peers parked in selects so the fork-join completes,
			// then let workpool.Run re-raise on the caller (a shard fault
			// unwinding here is what the hub's read failover retries).
			d.abortOnce.Do(func() { close(d.abort) })
			//lint:allow panic re-raise after unblocking peers; workpool.Run re-raises on the fork-join caller
			panic(r)
		}
	}()
	q := d.queues[w]
	probe := newSupportProbe()
	for {
		select {
		case <-d.abort:
			return
		default:
		}
		// Absorb delivered rechecks before popping, keeping senders
		// unblocked and the dedup map fresh.
	drained:
		for {
			select {
			case it := <-d.inbox[w]:
				d.receive(q, it)
			default:
				break drained
			}
		}
		u, v, ok := q.pop()
		if !ok {
			select {
			case it := <-d.inbox[w]:
				d.receive(q, it)
			case <-d.done:
				return
			case <-d.abort:
				return
			}
			continue
		}
		d.process(w, q, probe, u, v)
	}
}

// receive accepts a cross-stripe recheck: a duplicate of a queued pair
// releases the sender's token, anything else joins the queue carrying it.
func (d *pdrain) receive(q *worklist, it pairItem) {
	if !q.push(it.u, it.v) {
		d.release()
	}
}

// process is one sequential-drain step against the shared atomic sets.
func (d *pdrain) process(w int, q *worklist, probe *supportProbe, u pattern.NodeID, v uint32) {
	defer d.release()
	set := d.m.sets[u]
	if set == nil || !set.AtomicContains(v) {
		return
	}
	if d.m.pairSatisfied(u, v, d.o, probe) {
		return
	}
	set.AtomicRemove(v)
	d.m.p.In(u, func(uPrev pattern.NodeID, b pattern.Bound) {
		k := effectiveBound(b, d.o)
		prevSet := d.m.sets[uPrev]
		if prevSet == nil {
			return
		}
		d.o.ReverseBall(v, k, func(x uint32, _ shortest.Dist) bool {
			if prevSet.AtomicContains(x) {
				d.push(w, q, uPrev, x)
			}
			return true
		})
	})
}

// push routes a recheck to its owner: locally with dedup, or through the
// owner's bounded inbox. While waiting for inbox space the sender keeps
// draining its own inbox in the same select, so a ring of full inboxes
// always has a matching send/receive pair and cannot deadlock.
func (d *pdrain) push(w int, q *worklist, u pattern.NodeID, v uint32) {
	t := d.stripeOf(v)
	if t == w {
		if q.push(u, v) {
			d.inflight.Add(1)
		}
		return
	}
	it := pairItem{u, v}
	d.inflight.Add(1)
	for {
		select {
		case d.inbox[t] <- it:
			return
		case in := <-d.inbox[w]:
			d.receive(q, in)
		case <-d.abort:
			return
		}
	}
}

// release returns one quiescence token; the last one ends the drain.
func (d *pdrain) release() {
	if d.inflight.Add(-1) == 0 {
		d.doneOnce.Do(func() { close(d.done) })
	}
}
