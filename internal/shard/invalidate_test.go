package shard

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync/atomic"
	"testing"

	"uagpnm/internal/graph"
	"uagpnm/internal/obs"
	"uagpnm/internal/shortest"
)

// pathSource is a one-partition Source over a directed path 0→1→…→n-1,
// partition-local ids equal to global ids.
type pathSource struct{ g *graph.Graph }

func newPathSource(n int) pathSource {
	g := graph.New(nil)
	for i := 0; i < n; i++ {
		g.AddNode("X")
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(uint32(i), uint32(i+1))
	}
	return pathSource{g}
}

func (s pathSource) PartSnapshot(i int) Snapshot { return Snap(i, s.g) }

func (s pathSource) allRows() []RowReq {
	var reqs []RowReq
	for v := 0; v < s.g.NumIDs(); v++ {
		reqs = append(reqs, RowReq{Part: 0, Src: uint32(v)}, RowReq{Part: 0, Src: uint32(v), Reverse: true})
	}
	return reqs
}

func (s pathSource) insert(t *testing.T, from, to uint32) Op {
	t.Helper()
	if !s.g.AddEdge(from, to) {
		t.Fatalf("edge %d->%d already there", from, to)
	}
	return Op{Kind: OpEdgeInsert, From: from, To: to, Part: 0, Shard: 0, LFrom: from, LTo: to}
}

// tamperedWorker is a real worker whose /ops answers pass through
// tamper (when set) after the worker has applied the flush.
type tamperedWorker struct {
	inner  http.Handler
	tamper atomic.Pointer[func([]byte) []byte]
}

func (k *tamperedWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f := k.tamper.Load()
	if f == nil || r.URL.Path != "/ops" {
		k.inner.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	k.inner.ServeHTTP(rec, r)
	body := (*f)(rec.Body.Bytes())
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(rec.Code)
	_, _ = w.Write(body)
}

// checkHeld compares every row the client holds with a from-scratch
// build of the source's current graph.
func checkHeld(t *testing.T, stage string, cl *RPC, src pathSource, cfg Config) {
	t.Helper()
	oracle := NewLocal(func(int) *graph.Graph { return src.g })
	if err := oracle.Build(cfg, 0, []int{0}, src); err != nil {
		t.Fatal(err)
	}
	for rq, row := range cl.Cached() {
		want, _ := oracle.Rows([]RowReq{rq})
		if !reflect.DeepEqual(row, want[0]) {
			t.Fatalf("%s: client holds a stale row for %+v: %v, a fresh build says %v", stage, rq, row, want[0])
		}
	}
}

// TestApplyOpsInvalidatesExactly pins the flush's cache discipline on
// one worker: the rows of the sources an op's affected set names are
// dropped and come back with the warm answer, every other held row is
// vouched for with one word and kept, and a replay of the same epoch
// (answered from the fence record) leaves the cache exactly as current.
func TestApplyOpsInvalidatesExactly(t *testing.T) {
	src := newPathSource(8)
	ts := httptest.NewServer(NewServer().Handler())
	defer ts.Close()
	reg := obs.NewRegistry()
	cl := DialWith(ts.URL, reg)
	defer cl.Close()
	cfg := Config{Horizon: 3}
	if err := cl.Build(cfg, 0, []int{0}, src); err != nil {
		t.Fatal(err)
	}
	warm := src.allRows()
	if _, err := cl.Rows(warm); err != nil {
		t.Fatal(err)
	}
	count := func(name string) uint64 { return reg.Counter(name).Value() }
	fetched0 := count("gpnm_rpc_rows_prefetched_total")

	// 0→3 shortens 0⇝3 and brings 4 and 5 within 0's horizon.
	ops := []Op{src.insert(t, 0, 3)}
	named := []uint32{0, 3, 4, 5}
	for attempt := 0; attempt < 2; attempt++ {
		aff, err := cl.ApplyOps(1, ops, warm)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(aff[0], named) {
			t.Fatalf("attempt %d: affected set %v, want %v", attempt, aff[0], named)
		}
		if got := len(cl.Cached()); got != len(warm) {
			t.Fatalf("attempt %d: client holds %d rows after the flush, want all %d back", attempt, got, len(warm))
		}
		checkHeld(t, "after the flush", cl, src, cfg)
	}
	// Each delivery — the replay is answered from the fence record, and
	// dropping a fresh row is merely a refetch — dropped and re-sent the
	// two rows of every named source and vouched for the rest.
	moved, kept := uint64(2*2*len(named)), uint64(2*(len(warm)-2*len(named)))
	if got := count("gpnm_rpc_rows_invalidated_total"); got != moved {
		t.Errorf("gpnm_rpc_rows_invalidated_total = %d, want %d", got, moved)
	}
	if got := count("gpnm_rpc_rows_prefetched_total") - fetched0; got != moved {
		t.Errorf("the two flushes installed %d rows, want %d", got, moved)
	}
	if got := count("gpnm_rpc_rows_unchanged_total"); got != kept {
		t.Errorf("gpnm_rpc_rows_unchanged_total = %d, want %d", got, kept)
	}

	// Without warm demand the named rows simply leave the cache.
	if _, err := cl.ApplyOps(2, []Op{src.insert(t, 7, 0)}, nil); err != nil {
		t.Fatal(err)
	}
	if got := len(cl.Cached()); got >= len(warm) {
		t.Fatalf("a flush that moved rows left all %d cached", got)
	}
	checkHeld(t, "after the second flush", cl, src, cfg)
}

// TestApplyOpsRejectsBeforeTouchingCache: an /ops answer that is short
// an affected set, or cut inside an item, fails the flush and empties the
// cache — the worker has applied the ops, the answer cannot say which
// rows moved, so the next read must refetch rather than serve a row from
// before the flush.
func TestApplyOpsRejectsBeforeTouchingCache(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tamper func(*testing.T, []byte) []byte
	}{
		{"short aff", func(t *testing.T, body []byte) []byte {
			resp, err := decodeOpsResponse(body)
			if err != nil {
				t.Errorf("the worker's own answer does not decode: %v", err)
				return body
			}
			resp.aff = resp.aff[:len(resp.aff)-1]
			return encodeOpsResponse(resp)
		}},
		{"truncated body", func(_ *testing.T, body []byte) []byte { return body[:len(body)-8] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := newPathSource(8)
			worker := &tamperedWorker{inner: NewServer().Handler()}
			ts := httptest.NewServer(worker)
			defer ts.Close()
			cl := Dial(ts.URL)
			defer cl.Close()
			cfg := Config{Horizon: 3}
			if err := cl.Build(cfg, 0, []int{0}, src); err != nil {
				t.Fatal(err)
			}
			warm := src.allRows()
			if _, err := cl.Rows(warm); err != nil {
				t.Fatal(err)
			}

			tamper := func(body []byte) []byte { return tc.tamper(t, body) }
			worker.tamper.Store(&tamper)
			ops := []Op{src.insert(t, 0, 3), src.insert(t, 7, 0)}
			if _, err := cl.ApplyOps(1, ops, warm); err == nil {
				t.Fatal("ApplyOps accepted the tampered answer")
			}
			if held := cl.Cached(); len(held) != 0 {
				t.Fatalf("client still holds %d rows after a rejected flush", len(held))
			}
			worker.tamper.Store(nil)

			// The worker did apply: the rows read next are post-flush rows.
			if _, err := cl.Rows(warm); err != nil {
				t.Fatal(err)
			}
			checkHeld(t, "after the refetch", cl, src, cfg)
			rows, err := cl.Rows([]RowReq{{Part: 0, Src: 0}})
			if err != nil {
				t.Fatal(err)
			}
			near := map[uint32]bool{}
			rows[0].Visit(1, func(v uint32, _ shortest.Dist) bool { near[v] = true; return true })
			if !near[3] {
				t.Fatalf("row 0 within one hop = %v after the flush inserted 0→3", near)
			}
		})
	}
}
