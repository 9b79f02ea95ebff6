package shard

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"uagpnm/internal/graph"
)

// TestOpsRejectsSubgraphDivergence: an op the data-graph replica accepts
// but the owned partition's subgraph refuses — here a local id far out
// of range — means worker and coordinator disagree about the partition.
// The flush answers 409 like the replica checks do, before the intra
// engine has seen the op (its rows are still those of the build), and
// the worker stays up for the failover that follows.
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
			cfg := Config{Horizon: 3, Workers: 2}
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
