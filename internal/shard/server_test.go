package shard

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"uagpnm/internal/graph"
	"uagpnm/internal/obs"
)

// TestOpsRejectsSubgraphDivergence: an op the owned partition's subgraph
// refuses — here a local id far out of range — means worker and
// coordinator disagree about the partition. The flush answers 409 before
// the intra engine has seen the op (its rows are still those of the
// build), and the worker stays up for the failover that follows.
func TestOpsRejectsSubgraphDivergence(t *testing.T) {
	for _, tc := range []struct{ name, op string }{
		{"edge insert", `{"k":0,"u":0,"v":5,"p":0,"s":0,"lu":0,"lv":999999}`},
		{"edge delete", `{"k":1,"u":0,"v":1,"p":0,"s":0,"lu":0,"lv":999999}`},
		{"node delete", `{"k":3,"n":2,"p":0,"s":0,"ln":999999}`},
	} {
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
			oracle := NewLocal(func(int) *graph.Graph { return src.g })
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
	oracle := NewLocal(func(int) *graph.Graph { return src.g })
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
