// Package workpool stubs the worker-pool fan lockguard treats as a
// blocking call.
package workpool

func ForEach(n int, f func(i int)) {
	for i := 0; i < n; i++ {
		f(i)
	}
}

func ForEachBlocking(n int, f func(i int)) { ForEach(n, f) }
