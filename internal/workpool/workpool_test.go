package workpool

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"

	"uagpnm/internal/testkit"
)

func TestForEachCoversAllItems(t *testing.T) {
	for _, procs := range []int{1, 3, 16} {
		testkit.WithProcs(t, procs)
		const n = 100
		var hits [n]atomic.Int32
		ForEach(n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("procs=%d: item %d ran %d times", procs, i, got)
			}
		}
	}
}

// goroutineID reads the running goroutine's id off its stack header
// ("goroutine 18 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	return string(buf[:bytes.IndexByte(buf, ' ')])
}

// TestForEachSerialOnCaller pins serial mode: at GOMAXPROCS 1 every
// call runs on the calling goroutine, in index order — the same code
// path a plain loop would take.
func TestForEachSerialOnCaller(t *testing.T) {
	testkit.WithProcs(t, 1)
	caller := goroutineID()
	var order []int
	ForEach(20, func(i int) {
		if id := goroutineID(); id != caller {
			t.Errorf("item %d ran on goroutine %s, want the caller's %s", i, id, caller)
		}
		order = append(order, i)
	})
	for i, got := range order {
		if got != i {
			t.Fatalf("serial order = %v, want 0..19 ascending", order)
		}
	}
	if len(order) != 20 {
		t.Fatalf("ran %d items, want 20", len(order))
	}
}

// TestForEachPropagatesPanic pins the fork-join contract the shard
// layer depends on: a panic in fn (a remote shard's TransportError in
// production) must re-raise on the calling goroutine — at any pool
// width — instead of crashing the process from an anonymous
// goroutine.
func TestForEachPropagatesPanic(t *testing.T) {
	for _, procs := range []int{1, 4} {
		testkit.WithProcs(t, procs)
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("procs=%d: panic swallowed", procs)
				}
				if s, ok := r.(string); !ok || s != "boom" {
					t.Fatalf("procs=%d: recovered %v, want \"boom\"", procs, r)
				}
			}()
			ForEach(50, func(i int) {
				if i == 17 {
					panic("boom")
				}
			})
		}()
	}
}
