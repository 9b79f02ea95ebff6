package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// rounds is the number of interleaved rounds a timed window is split
// into: sample i belongs to round i%rounds, a statistic is computed per
// round and the median of the round values is reported. A disturbance
// that lasts a few hundred milliseconds lands in all rounds alike instead
// of owning the head or the tail of the window.
const rounds = 3

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile of xs (p in 0..1); NaN when
// xs is empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func p50(xs []float64) float64 { return percentile(xs, 0.50) }
func p95(xs []float64) float64 { return percentile(xs, 0.95) }

// byRounds applies stat to each interleaved round of xs and returns the
// median of the round values. With fewer than 2*rounds samples it falls
// back to stat over all of xs.
func byRounds(xs []float64, stat func([]float64) float64) float64 {
	if len(xs) < 2*rounds {
		return stat(xs)
	}
	parts := make([][]float64, rounds)
	for i, x := range xs {
		parts[i%rounds] = append(parts[i%rounds], x)
	}
	vals := make([]float64, rounds)
	for i, p := range parts {
		vals[i] = stat(p)
	}
	return median(vals)
}

// spread is the interquartile range of xs as a share of its median, the
// run-to-run spread the bounds are judged against.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sorted(xs)
	// Same quartiles as Python's statistics.quantiles(xs, n=4)
	// (exclusive method), which is what the referee computes.
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := min(max(int(pos), 1), len(s)-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(m)
}

// cpuNow is the process's user+system CPU time so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocNow reads the cumulative heap allocation counters (what
// MemStats.TotalAlloc and Mallocs report) without stopping the world, so
// it can bracket every timed operation.
func allocNow() (bytes, objects uint64) {
	s := [2]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s[:])
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// heapLiveMB forces a collection and reports what survives it.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
