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

// This file parallelizes Amend. Both phases admit it because the result
// is order-independent: the Phase A closure is a reachability fixpoint
// (the same set whatever order frontier nodes expand in), and the
// Phase B removal fixpoint converges to the unique maximum simulation
// from any drain order (the same argument that makes Run ≡ Amend).
// What parallelism must preserve is the cascade invariant: whenever a
// pair is removed, every pair it might have been supporting gets
// rechecked *after* the removal is visible. The striped drain below
// keeps it by making each removal and its cascade pushes a single
// owner-ordered sequence — a recheck either lands in the owner's queue
// behind the removal (channel send → receive is a happens-before edge)
// or dedups against an entry the owner pops later, which is also after.
//
// Phase A stripes the frontier across workpool workers (each expands
// reverse balls against the frozen closure of the round) and merges the
// candidates into a sharded closure — one nodeset.Bits per stripe, each
// merged only by its owning worker, so the merge needs no locks.
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

// AmendN is Amend fanned across up to workers goroutines. workers ≤ 1
// is exactly Amend — the bit-for-bit sequential path the differential
// suite pins the parallel result against.
func AmendN(old *Match, newP *pattern.Graph, g *graph.Graph, o shortest.Oracle, seeds nodeset.Set, workers int) *Match {
	if workers <= 1 {
		return Amend(old, newP, g, o, seeds)
	}
	rebuild, dirtyAll := amendDelta(old.p, newP)
	wanted := labelInterest(newP)
	maxIn := maxInBound(newP, o)

	// Phase A: close seeds under support cascades, round by round. Each
	// round expands the current frontier in parallel against the frozen
	// closure, then merges the collected candidates stripe by stripe;
	// the newly added ones form the next frontier.
	n := g.NumIDs()
	closure := newShardedBits(n, workers)
	var frontier []uint32
	for _, x := range seeds {
		if g.Alive(x) && interesting(g, wanted, x) && closure.add(x) {
			frontier = append(frontier, x)
		}
	}
	for u := range rebuild {
		oldSet := old.setOrNil(u)
		for _, v := range g.NodesWithLabel(newP.Label(u)) {
			if (oldSet == nil || !oldSet.Contains(v)) && closure.add(v) {
				frontier = append(frontier, v)
			}
		}
	}
	for maxIn > 0 && len(frontier) > 0 {
		found := make([][]uint32, len(frontier))
		workpool.ForEach(workers, len(frontier), func(i int) {
			var cand []uint32
			o.ReverseBall(frontier[i], maxIn, func(x uint32, _ shortest.Dist) bool {
				if !closure.contains(x) && interesting(g, wanted, x) {
					cand = append(cand, x)
				}
				return true
			})
			found[i] = cand
		})
		next := make([][]uint32, workers)
		workpool.Run(workers, func(s int) {
			var mine []uint32
			for _, cs := range found {
				for _, x := range cs {
					if closure.stripeOf(x) == s && closure.stripes[s].Add(x) {
						mine = append(mine, x)
					}
				}
			}
			next[s] = mine
		})
		frontier = frontier[:0]
		for _, m := range next {
			frontier = append(frontier, m...)
		}
	}

	// Optimistic candidate sets, one independent build per pattern node.
	amended := &Match{p: newP, sets: make([]*nodeset.Bits, newP.NumIDs())}
	var nodes []pattern.NodeID
	newP.Nodes(func(u pattern.NodeID) { nodes = append(nodes, u) })
	workpool.ForEach(workers, len(nodes), func(i int) {
		u := nodes[i]
		bits := nodeset.NewBits(n)
		if rebuild[u] {
			for _, v := range g.NodesWithLabel(newP.Label(u)) {
				bits.Add(v)
			}
		} else {
			if oldSet := old.setOrNil(u); oldSet != nil {
				oldSet.Range(func(v uint32) bool {
					if g.Alive(v) {
						bits.Add(v)
					}
					return true
				})
			}
			for _, v := range g.NodesWithLabel(newP.Label(u)) {
				if closure.contains(v) {
					bits.Add(v)
				}
			}
		}
		amended.sets[u] = bits
	})

	// Phase B: the striped removal fixpoint, seeded with the dirty pairs.
	d := newPDrain(amended, g, o, workers)
	newP.Nodes(func(u pattern.NodeID) {
		set := amended.sets[u]
		if dirtyAll[u] {
			set.Range(func(v uint32) bool {
				d.seed(u, v)
				return true
			})
			return
		}
		set.Range(func(v uint32) bool {
			if closure.contains(v) {
				d.seed(u, v)
			}
			return true
		})
	})
	d.run()
	return amended
}

// shardedBits is a closure split across word-granular stripes so each
// merge worker owns disjoint state. Reads may come from any goroutine
// between merge rounds (the rounds are fork-join fenced).
type shardedBits struct {
	stripes []*nodeset.Bits
}

func newShardedBits(capacity, stripes int) *shardedBits {
	s := &shardedBits{stripes: make([]*nodeset.Bits, stripes)}
	for i := range s.stripes {
		s.stripes[i] = nodeset.NewBits(capacity)
	}
	return s
}

func (s *shardedBits) stripeOf(x uint32) int { return int(x>>6) % len(s.stripes) }

func (s *shardedBits) contains(x uint32) bool { return s.stripes[s.stripeOf(x)].Contains(x) }

func (s *shardedBits) add(x uint32) bool { return s.stripes[s.stripeOf(x)].Add(x) }

// pdrain runs the removal fixpoint across stripe-owned worklists.
type pdrain struct {
	m       *Match
	g       *graph.Graph
	o       shortest.Oracle
	workers int

	queues []pqueue
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

// pqueue is one stripe's FIFO with per-pair dedup, owned by one worker.
type pqueue struct {
	queue  []pairItem
	head   int
	queued map[pairItem]bool
}

func (q *pqueue) pop() (pairItem, bool) {
	if q.head >= len(q.queue) {
		return pairItem{}, false
	}
	it := q.queue[q.head]
	q.head++
	if q.head == len(q.queue) {
		q.queue = q.queue[:0]
		q.head = 0
	}
	delete(q.queued, it)
	return it, true
}

const pdrainInboxCap = 256

func newPDrain(m *Match, g *graph.Graph, o shortest.Oracle, workers int) *pdrain {
	d := &pdrain{
		m: m, g: g, o: o, workers: workers,
		queues: make([]pqueue, workers),
		inbox:  make([]chan pairItem, workers),
		done:   make(chan struct{}),
		abort:  make(chan struct{}),
	}
	for i := range d.queues {
		d.queues[i].queued = make(map[pairItem]bool)
	}
	for i := range d.inbox {
		d.inbox[i] = make(chan pairItem, pdrainInboxCap)
	}
	return d
}

func (d *pdrain) stripeOf(v uint32) int { return int(v) % d.workers }

// seed enqueues one pair before the workers start (single-goroutine).
func (d *pdrain) seed(u pattern.NodeID, v uint32) {
	q := &d.queues[d.stripeOf(v)]
	it := pairItem{u, v}
	if q.queued[it] {
		return
	}
	q.queued[it] = true
	q.queue = append(q.queue, it)
	d.inflight.Add(1)
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
	q := &d.queues[w]
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
		it, ok := q.pop()
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
		d.process(w, q, it)
	}
}

// receive accepts a cross-stripe recheck: a duplicate of a queued pair
// releases the sender's token, anything else joins the queue carrying it.
func (d *pdrain) receive(q *pqueue, it pairItem) {
	if q.queued[it] {
		d.release()
		return
	}
	q.queued[it] = true
	q.queue = append(q.queue, it)
}

// process is one sequential-drain step against the shared atomic sets.
func (d *pdrain) process(w int, q *pqueue, it pairItem) {
	defer d.release()
	u, v := it.u, it.v
	set := d.m.sets[u]
	if set == nil || !set.AtomicContains(v) {
		return
	}
	if d.pairSatisfied(u, v) {
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

func (d *pdrain) pairSatisfied(u pattern.NodeID, v uint32) bool {
	satisfied := true
	d.m.p.Out(u, func(uNext pattern.NodeID, b pattern.Bound) {
		if !satisfied {
			return
		}
		cand := d.m.sets[uNext]
		found := false
		d.o.ForwardBall(v, effectiveBound(b, d.o), func(x uint32, _ shortest.Dist) bool {
			if cand.AtomicContains(x) {
				found = true
				return false
			}
			return true
		})
		if !found {
			satisfied = false
		}
	})
	return satisfied
}

// push routes a recheck to its owner: locally with dedup, or through the
// owner's bounded inbox. While waiting for inbox space the sender keeps
// draining its own inbox in the same select, so a ring of full inboxes
// always has a matching send/receive pair and cannot deadlock.
func (d *pdrain) push(w int, q *pqueue, u pattern.NodeID, v uint32) {
	it := pairItem{u, v}
	t := d.stripeOf(v)
	if t == w {
		if q.queued[it] {
			return
		}
		q.queued[it] = true
		q.queue = append(q.queue, it)
		d.inflight.Add(1)
		return
	}
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
