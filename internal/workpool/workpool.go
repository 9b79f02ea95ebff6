// Package workpool is the one worker-pool discipline every parallel
// phase in the repository runs on: dynamic claiming over an atomic
// counter, no goroutines in serial mode. The partition engine, the SLen
// matrix build, the standing-query hub's per-pattern fan-out and the
// shard layer all share it. The pool is as wide as the Go runtime
// (runtime.GOMAXPROCS, read when a fan starts), so GOMAXPROCS=1 means
// bit-for-bit serial execution everywhere at once.
package workpool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(i) for every i in [0,n) across at most
// runtime.GOMAXPROCS(0) goroutines, returning when all calls have
// finished. A width of 1 (or n ≤ 1) degenerates to a plain serial loop
// on the calling goroutine, in index order, with no goroutine or
// channel overhead, so serial mode stays bit-for-bit the
// single-threaded code path.
//
// Work is handed out through an atomic counter rather than pre-sliced
// ranges: per-item cost varies wildly in this repository (partition
// sizes are heavy-tailed, Dijkstra frontiers differ per source), and
// dynamic claiming keeps the stragglers from serialising the tail.
// fn must be safe to call concurrently for distinct i.
//
// A panic in fn is re-raised on the calling goroutine after every
// worker has drained (the first panic wins; remaining work is
// abandoned), matching the serial path — so callers see fork-join
// semantics, not a raw runtime crash from an anonymous goroutine.
// The shard layer depends on this: a remote shard's TransportError
// must unwind through the engine into whoever coordinates the session,
// whatever the pool width was.
func ForEach(n int, fn func(i int)) { run(runtime.GOMAXPROCS(0), n, fn) }

// ForEachBlocking is ForEach with one goroutine per call: for fans of
// calls that block on I/O (one RPC per remote shard), whose useful width
// is the number of calls, not the number of cores — a probe of every
// shard costs one timeout, not one per shard.
func ForEachBlocking(n int, fn func(i int)) { run(n, n, fn) }

func run(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicked bool
	var panicVal interface{}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicked, panicVal = true, r })
					next.Store(int64(n)) // abandon the remaining work
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if panicked {
		panic(panicVal)
	}
}
