package shard

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"uagpnm/internal/obs"
)

// divergentOps are ops on partition 0 that its subgraph refuses.
var divergentOps = []struct{ name, op string }{
	{"edge insert", `{"k":0,"u":0,"v":5,"p":0,"s":0,"lu":0,"lv":999999}`},
	{"edge delete", `{"k":1,"u":0,"v":1,"p":0,"s":0,"lu":0,"lv":999999}`},
	{"node delete", `{"k":3,"n":2,"p":0,"s":0,"ln":999999}`},
}

// TestOpsRejectsSubgraphDivergence: an op the owned partition's subgraph
// refuses — here a local id far out of range — means worker and
// coordinator disagree about the partition. The flush answers 409 before
// the intra engine has seen the op (its rows are still those of the
// build), and the worker stays up for the failover that follows.
func TestOpsRejectsSubgraphDivergence(t *testing.T) {
	for _, tc := range divergentOps {
		t.Run(tc.name, func(t *testing.T) {
			src := newPathSource(8)
			ts := httptest.NewServer(NewServer().Handler())
			defer ts.Close()
			cl := Dial(ts.URL)
			defer cl.Close()
			cfg := Config{Horizon: 3}
			if err := cl.Build(cfg, 0, []int{0}, src); err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+"/ops", "application/json", strings.NewReader(`{"epoch":1,"ops":[`+tc.op+`]}`))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusConflict {
				t.Fatalf("/ops answered %d, want 409", resp.StatusCode)
			}
			if err := cl.Ping(); err != nil {
				t.Fatalf("/healthz after the rejected flush: %v", err)
			}
			oracle := NewLocal()
			if err := oracle.Build(cfg, 0, []int{0}, src); err != nil {
				t.Fatal(err)
			}
			got, err := cl.Rows(src.allRows())
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := oracle.Rows(src.allRows()); !reflect.DeepEqual(got, want) {
				t.Fatal("the engine moved although the flush was refused")
			}
		})
	}
}

// TestOpsRejectsConcatenatedBody: a JSON handler reads exactly one value.
// A flush followed by a second value answers 400 without applying the
// first, and the same flush alone is accepted.
func TestOpsRejectsConcatenatedBody(t *testing.T) {
	src := newPathSource(8)
	ts := httptest.NewServer(NewServer().Handler())
	defer ts.Close()
	cl := Dial(ts.URL)
	defer cl.Close()
	cfg := Config{Horizon: 3}
	if err := cl.Build(cfg, 0, []int{0}, src); err != nil {
		t.Fatal(err)
	}
	flush := `{"epoch":1,"ops":[{"k":0,"u":0,"v":5,"p":0,"s":0,"lu":0,"lv":5}]}`
	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/ops", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post(flush + `{"epoch":2,"ops":[]}`); got != http.StatusBadRequest {
		t.Fatalf("/ops with two concatenated bodies answered %d, want 400", got)
	}
	oracle := NewLocal()
	if err := oracle.Build(cfg, 0, []int{0}, src); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Rows(src.allRows())
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := oracle.Rows(src.allRows()); !reflect.DeepEqual(got, want) {
		t.Fatal("the engine moved although the body was refused")
	}
	if got := post(flush + "\n"); got != http.StatusOK {
		t.Fatalf("/ops with the flush alone answered %d, want 200", got)
	}
}

// TestWorkerHoldsPartitionsOnly: a worker is claimed by a /build that
// carries its partitions and nothing else, skips every op it does not
// own — whatever global ids the op names — and serves no affected balls.
func TestWorkerHoldsPartitionsOnly(t *testing.T) {
	src := newPathSource(8)
	ts := httptest.NewServer(NewServer().Handler())
	defer ts.Close()
	health := func() (h struct {
		Built bool   `json:"built"`
		Parts int    `json:"parts"`
		Epoch uint64 `json:"epoch"`
	}) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h
	}
	if h := health(); h.Built {
		t.Fatal("a fresh worker reports built")
	}

	cfg := Config{Horizon: 3}
	body, err := json.Marshal(buildRequest{Config: cfg, Parts: []Snapshot{src.PartSnapshot(0)}})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(body), `"graph"`) {
		t.Fatalf("a /build body carries a graph snapshot: %s", body)
	}
	resp, err := http.Post(ts.URL+"/build", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/build answered %d", resp.StatusCode)
	}
	if h := health(); !h.Built || h.Parts != 1 {
		t.Fatalf("after /build: built=%v parts=%d, want true and 1", h.Built, h.Parts)
	}

	reg := obs.NewRegistry()
	cl := DialWith(ts.URL, reg)
	defer cl.Close()
	warm := src.allRows()
	if _, err := cl.Rows(warm); err != nil {
		t.Fatal(err)
	}
	// Ids no graph of this worker has: a cross-partition edge, and every
	// op kind on a partition another worker owns.
	foreign := []Op{
		{Kind: OpEdgeInsert, From: 1000, To: 2000, Part: -1, Shard: -1},
		{Kind: OpEdgeDelete, From: 1000, To: 2000, Part: 1, Shard: 1, LFrom: 0, LTo: 1},
		{Kind: OpNodeInsert, Node: 3000, Part: 1, Shard: 1, Local: 9},
		{Kind: OpNodeDelete, Node: 3000, Part: 1, Shard: 1, Local: 9},
	}
	aff, err := cl.ApplyOps(1, foreign, warm)
	if err != nil {
		t.Fatalf("a flush of foreign ops failed: %v", err)
	}
	if !reflect.DeepEqual(aff, make([][]uint32, len(foreign))) {
		t.Fatalf("foreign ops answered affected sets %v, want none", aff)
	}
	if got := reg.Counter("gpnm_rpc_rows_unchanged_total").Value(); got != uint64(len(warm)) {
		t.Fatalf("%d of %d held rows answered unchanged after a flush of foreign ops", got, len(warm))
	}
	checkHeld(t, "after the foreign flush", cl, src, cfg)
	if h := health(); h.Epoch != 1 || h.Parts != 1 {
		t.Fatalf("after the flush: epoch=%d parts=%d, want 1 and 1", h.Epoch, h.Parts)
	}

	resp, err = http.Post(ts.URL+"/affected", "application/json", strings.NewReader(`{"reqs":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /affected answered %d, want 404", resp.StatusCode)
	}
}

// serve runs one request through h in process and returns the recorded
// answer.
func serve(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// buildBody is the /build request claiming a worker with snaps.
func buildBody(t testing.TB, snaps ...Snapshot) string {
	t.Helper()
	body, err := json.Marshal(buildRequest{Config: Config{Horizon: 3}, Parts: snaps})
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// foundingFlush founds partition 1<<24 on slot 0 with one node insert.
const foundingFlush = `{"epoch":1,"ops":[{"k":2,"n":9,"p":16777216,"s":0,"ln":0}]}`

// TestFoundingInsertAllocatesItsPartitionOnly: a node insert that
// founds a partition costs the worker that partition, whatever index
// the flush names — not a table grown to the index.
func TestFoundingInsertAllocatesItsPartitionOnly(t *testing.T) {
	h := NewServer().Handler()
	if rec := serve(h, http.MethodPost, "/build", buildBody(t, newPathSource(8).PartSnapshot(0))); rec.Code != http.StatusOK {
		t.Fatalf("/build answered %d: %s", rec.Code, rec.Body)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rec := serve(h, http.MethodPost, "/ops", foundingFlush)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusOK {
		t.Fatalf("/ops answered %d: %s", rec.Code, rec.Body)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 16<<20 {
		t.Fatalf("founding partition 1<<24 allocated %d MB", alloc>>20)
	}
	var health struct {
		Parts int `json:"parts"`
	}
	if err := json.NewDecoder(serve(h, http.MethodGet, "/healthz", "").Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Parts != 2 {
		t.Fatalf("the worker holds %d partitions after the founding insert, want 2", health.Parts)
	}
}

// unfencedFlush is a flush that would move rows, sent at epoch 0.
const unfencedFlush = `{"epoch":0,"ops":[{"k":0,"u":0,"v":5,"p":0,"s":0,"lu":0,"lv":5}]}`

// TestOpsRefusesUnfencedFlush: every flush is fenced. One at epoch 0 —
// which the coordinator never sends — answers 400 and applies nothing,
// however often it is sent.
func TestOpsRefusesUnfencedFlush(t *testing.T) {
	src := newPathSource(8)
	ts := httptest.NewServer(NewServer().Handler())
	defer ts.Close()
	cl := Dial(ts.URL)
	defer cl.Close()
	cfg := Config{Horizon: 3}
	if err := cl.Build(cfg, 0, []int{0}, src); err != nil {
		t.Fatal(err)
	}
	for attempt := 0; attempt < 2; attempt++ {
		resp, err := http.Post(ts.URL+"/ops", "application/json", strings.NewReader(unfencedFlush))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("delivery %d of an epoch-0 flush answered %d, want 400", attempt, resp.StatusCode)
		}
	}
	oracle := NewLocal()
	if err := oracle.Build(cfg, 0, []int{0}, src); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Rows(src.allRows())
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := oracle.Rows(src.allRows()); !reflect.DeepEqual(got, want) {
		t.Fatal("the engine moved although the flush was refused")
	}
}

// FuzzWorkerOps sends any body of up to 1 KB to the /ops of a worker
// built over two small partitions: it must answer 200, 400 or 409,
// never panic, and still answer /healthz afterwards.
func FuzzWorkerOps(f *testing.F) {
	for _, tc := range divergentOps {
		f.Add([]byte(`{"epoch":1,"ops":[` + tc.op + `]}`))
	}
	f.Add([]byte(foundingFlush))
	f.Add([]byte(unfencedFlush))
	build := buildBody(f, newPathSource(8).PartSnapshot(0), newPathSource(5).PartSnapshot(1))
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > 1<<10 {
			return
		}
		h := NewServer().Handler()
		if rec := serve(h, http.MethodPost, "/build", build); rec.Code != http.StatusOK {
			t.Fatalf("/build answered %d: %s", rec.Code, rec.Body)
		}
		switch rec := serve(h, http.MethodPost, "/ops", string(body)); rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusConflict:
		default:
			t.Fatalf("/ops answered %d: %s", rec.Code, rec.Body)
		}
		if rec := serve(h, http.MethodGet, "/healthz", ""); rec.Code != http.StatusOK {
			t.Fatalf("/healthz answered %d after the flush", rec.Code)
		}
	})
}

// snapSource serves fixed snapshots by partition index.
type snapSource []Snapshot

func (s snapSource) PartSnapshot(i int) Snapshot { return s[i] }

// FuzzWorkerRows sends any body of up to 1 KB to the /rows of a worker
// built over two small partitions: it must never panic and answer 200
// or 400, and a 200 must decode to one answer per request — for an
// owned partition the row an in-process shard over the same snapshots
// serves (empty for a source past the partition's ids), not-owned for
// every other index, negative ones included.
func FuzzWorkerRows(f *testing.F) {
	f.Add([]byte(`{"reqs":[{"p":0,"s":0},{"p":1,"s":4,"r":true}]}`))
	f.Add([]byte(`{"reqs":[{"p":0,"s":4294967295},{"p":1,"s":99,"r":true,"h":true}]}`))
	f.Add([]byte(`{"reqs":[{"p":-1,"s":0},{"p":2,"s":0},{"p":16777216,"s":1}]}`))
	f.Add([]byte(`{"reqs":[{"p":0,"s":-1}]}`))
	f.Add([]byte(`{"reqs":[]}{"reqs":[]}`))
	snaps := snapSource{newPathSource(8).PartSnapshot(0), newPathSource(5).PartSnapshot(1)}
	h := NewServer().Handler()
	if rec := serve(h, http.MethodPost, "/build", buildBody(f, snaps...)); rec.Code != http.StatusOK {
		f.Fatalf("/build answered %d: %s", rec.Code, rec.Body)
	}
	oracle := NewLocal()
	if err := oracle.Build(Config{Horizon: 3}, 0, []int{0, 1}, snaps); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > 1<<10 {
			return
		}
		rec := serve(h, http.MethodPost, "/rows", string(body))
		if rec.Code == http.StatusBadRequest {
			return
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("/rows answered %d: %s", rec.Code, rec.Body)
		}
		var req struct {
			Reqs []RowReq `json:"reqs"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("/rows answered 200 to a body that does not decode: %v", err)
		}
		answers, err := decodeRows(rec.Body.Bytes())
		if err != nil {
			t.Fatalf("the /rows answer does not decode: %v", err)
		}
		if len(answers) != len(req.Reqs) {
			t.Fatalf("/rows answered %d rows to %d requests", len(answers), len(req.Reqs))
		}
		for i, rq := range req.Reqs {
			if !oracle.Owns(rq.Part) {
				if answers[i].state != rowNotOwned {
					t.Fatalf("request %+v for an unowned partition answered state %d", rq, answers[i].state)
				}
				continue
			}
			want, _ := oracle.Rows([]RowReq{rq})
			if answers[i].state != rowFull || !reflect.DeepEqual(answers[i].row, want[0]) {
				t.Fatalf("request %+v answered state %d row %v, want row %v", rq, answers[i].state, answers[i].row, want[0])
			}
		}
	})
}
