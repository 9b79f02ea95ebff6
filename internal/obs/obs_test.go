package obs

import (
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentCounters hammers one counter family from many
// goroutines — some sharing a handle, some re-looking it up — and
// checks the totals. Run under -race this is the registry's
// thread-safety proof.
func TestConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	const goroutines, perG = 16, 1000
	shared := r.Counter("shared_total")
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				shared.Inc()
				r.Counter("looked_up_total", "worker", fmt.Sprint(i%4)).Inc()
				r.Gauge("gauge").Add(1)
			}
		}(i)
	}
	wg.Wait()
	if got := shared.Value(); got != goroutines*perG {
		t.Fatalf("shared counter = %d, want %d", got, goroutines*perG)
	}
	var lookedUp uint64
	for w := 0; w < 4; w++ {
		lookedUp += r.Counter("looked_up_total", "worker", fmt.Sprint(w)).Value()
	}
	if lookedUp != goroutines*perG {
		t.Fatalf("looked-up counters sum to %d, want %d", lookedUp, goroutines*perG)
	}
	if got := r.Gauge("gauge").Value(); got != goroutines*perG {
		t.Fatalf("gauge = %d, want %d", got, goroutines*perG)
	}
}

// TestConcurrentHistogram checks that the CAS-looped float sum and the
// per-bucket counts stay exact under contention.
func TestConcurrentHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "endpoint", "/ops")
	const goroutines, perG = 8, 500
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				h.ObserveSeconds(0.001) // lands exactly on a bucket bound
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*perG)
	}
	want := float64(goroutines*perG) * 0.001
	if got := h.Sum(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("histogram sum = %g, want %g", got, want)
	}
}

// TestHistogramBuckets pins the bucket placement rule: an observation
// lands in the first bucket whose bound is >= the value, with +Inf
// catching everything beyond the last bound.
func TestHistogramBuckets(t *testing.T) {
	h := newHistogram()
	h.ObserveSeconds(0.00005) // below first bound → bucket 0 (le 0.0001)
	h.ObserveSeconds(0.0001)  // exactly the first bound → bucket 0
	h.ObserveSeconds(0.003)   // between 0.0025 and 0.005 → le 0.005
	h.ObserveSeconds(99)      // beyond 10s → +Inf
	if got := h.counts[0].Load(); got != 2 {
		t.Fatalf("bucket le=0.0001 = %d, want 2", got)
	}
	i := 0
	for DefBuckets[i] != 0.005 {
		i++
	}
	if got := h.counts[i].Load(); got != 1 {
		t.Fatalf("bucket le=0.005 = %d, want 1", got)
	}
	if got := h.counts[len(DefBuckets)].Load(); got != 1 {
		t.Fatalf("+Inf bucket = %d, want 1", got)
	}
	if got := h.Count(); got != 4 {
		t.Fatalf("count = %d, want 4", got)
	}
}

// TestKindMismatchPanics: re-registering a name as another kind is a
// programming error and must fail loudly.
func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total")
	defer func() {
		if recover() == nil {
			t.Fatal("histogram lookup of a counter name did not panic")
		}
	}()
	r.Histogram("x_total")
}

// TestHistogramSums reads back a single-label family the way the
// repository benchmark reads the per-phase breakdown.
func TestHistogramSums(t *testing.T) {
	r := NewRegistry()
	r.Histogram("gpnm_batch_phase_seconds", "phase", "pre_balls").ObserveSeconds(0.25)
	r.Histogram("gpnm_batch_phase_seconds", "phase", "pre_balls").ObserveSeconds(0.25)
	r.Histogram("gpnm_batch_phase_seconds", "phase", "slen_sync").ObserveSeconds(1)
	r.Histogram("other_seconds", "phase", "pre_balls").ObserveSeconds(9)
	sums := r.HistogramSums("gpnm_batch_phase_seconds")
	if len(sums) != 2 || sums["pre_balls"] != 0.5 || sums["slen_sync"] != 1 {
		t.Fatalf("HistogramSums = %v, want pre_balls=0.5 slen_sync=1", sums)
	}
}

// TestTraceRingBound: the ring keeps the most recent traceRingCap
// traces, oldest first.
func TestTraceRingBound(t *testing.T) {
	r := NewRegistry()
	for i := 1; i <= traceRingCap+10; i++ {
		r.RecordTrace(Trace{Seq: uint64(i)})
	}
	traces := r.Traces()
	if len(traces) != traceRingCap {
		t.Fatalf("ring holds %d traces, want %d", len(traces), traceRingCap)
	}
	if traces[0].Seq != 11 || traces[len(traces)-1].Seq != traceRingCap+10 {
		t.Fatalf("ring spans seqs %d..%d, want 11..%d",
			traces[0].Seq, traces[len(traces)-1].Seq, traceRingCap+10)
	}
	last, ok := r.LastTrace()
	if !ok || last.Seq != traceRingCap+10 {
		t.Fatalf("LastTrace = %v %v", last, ok)
	}
}

func TestTraceSpanSeconds(t *testing.T) {
	tr := Trace{}
	tr.AddSpan("recovery", 100*time.Millisecond)
	tr.AddSpan("slen_sync", 50*time.Millisecond)
	tr.AddSpan("recovery", 200*time.Millisecond)
	if got := tr.SpanSeconds("recovery"); math.Abs(got-0.3) > 1e-9 {
		t.Fatalf("SpanSeconds(recovery) = %g, want 0.3", got)
	}
	if got := tr.SpanSeconds("absent"); got != 0 {
		t.Fatalf("SpanSeconds(absent) = %g, want 0", got)
	}
}

// TestPrometheusExposition pins the text format: TYPE headers once per
// family, sorted samples, cumulative buckets with +Inf, _sum/_count,
// and escaped label values.
func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("gpnm_rpc_retries_total", "endpoint", "/ops").Add(3)
	r.Gauge("gpnm_hub_seq").Set(42)
	r.Histogram("gpnm_rpc_seconds", "endpoint", "/ops").ObserveSeconds(0.003)
	r.Histogram("gpnm_rpc_seconds", "endpoint", "/ops").ObserveSeconds(0.02)
	r.Counter("escaped_total", "v", "a\"b\\c\nd").Inc()

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	for _, want := range []string{
		"# TYPE gpnm_rpc_retries_total counter\n",
		`gpnm_rpc_retries_total{endpoint="/ops"} 3` + "\n",
		"# TYPE gpnm_hub_seq gauge\n",
		"gpnm_hub_seq 42\n",
		"# TYPE gpnm_rpc_seconds histogram\n",
		`gpnm_rpc_seconds_bucket{endpoint="/ops",le="0.0025"} 0` + "\n",
		`gpnm_rpc_seconds_bucket{endpoint="/ops",le="0.005"} 1` + "\n",
		`gpnm_rpc_seconds_bucket{endpoint="/ops",le="0.025"} 2` + "\n",
		`gpnm_rpc_seconds_bucket{endpoint="/ops",le="+Inf"} 2` + "\n",
		`gpnm_rpc_seconds_sum{endpoint="/ops"} 0.023` + "\n",
		`gpnm_rpc_seconds_count{endpoint="/ops"} 2` + "\n",
		`escaped_total{v="a\"b\\c\nd"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n--- got ---\n%s", want, out)
		}
	}
	if got := strings.Count(out, "# TYPE gpnm_rpc_seconds "); got != 1 {
		t.Errorf("TYPE header for gpnm_rpc_seconds appears %d times, want 1", got)
	}
}

// TestServeHTTP: a registry mounts directly as a metrics endpoint with
// the 0.0.4 content type.
func TestServeHTTP(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total").Inc()
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "hits_total 1") {
		t.Fatalf("body = %q", rec.Body.String())
	}
}
