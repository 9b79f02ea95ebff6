package api

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"uagpnm/internal/hub"
)

// FuzzAPIRequests sends any body of up to 1 KB to POST /v1/patterns and
// then to POST /v1/apply of a small in-process hub with one standing
// query (id 1): each must answer 2xx or 4xx, never 5xx and never a
// panic, and GET /v1/healthz must answer 200 afterwards.
func FuzzAPIRequests(f *testing.F) {
	for _, body := range []string{
		`{"pattern":"node a PM\nnode b SE\nedge a b 2"}`,
		`{"graph":{"num_ids":3,"nodes":[{"id":0,"name":"a","label":"PM"},{"id":2,"name":"b","label":"SE"}],"edges":[{"from":0,"to":2,"bound":"*"}]}}`,
		`{"updates":[{"op":"+e","from":1,"to":2},{"op":"+n","node":3,"labels":["SE"]},{"op":"-n","node":0}],"patterns":{"1":[{"op":"+pe","from":1,"to":0,"bound":"3"}]}}`,
		`{"updates":[{"op":"-e","from":7,"to":9},{"op":"-n","node":4294967295}]}`,
		`{"patterns":{"1":[{"op":"-pn","node":5},{"op":"+pn","node":2,"labels":["NEW"]},{"op":"-pe","from":0,"to":9}]}}`,
		`{"patterns":{"01":[]}}`,
		`{"patterns":{"1":[{"op":"-pe","from":0,"to":1},{"op":"+pe","from":0,"to":1,"bound":"2147483647"}]}}`,
		`{"pattern":"node a PM\nnode b SE\nedge a b 2147483647\nedge b a *"}`,
		`{"graph":{"num_ids":1048577,"nodes":[{"id":1048576,"name":"a","label":"PM"}]}}`,
		`{}{}`,
		`not json`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > 1<<10 {
			return
		}
		h := testHub(t, hub.Config{})
		defer h.Close()
		if _, err := h.RegisterScript(strings.NewReader("node a PM\nnode b SE\nedge a b 1")); err != nil {
			t.Fatal(err)
		}
		routes := NewServer(h, ServerConfig{}).Routes()
		for _, path := range []string{"/v1/patterns", "/v1/apply"} {
			rec := httptest.NewRecorder()
			routes.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(string(body))))
			if rec.Code < 200 || rec.Code >= 500 || (rec.Code >= 300 && rec.Code < 400) {
				t.Fatalf("POST %s answered %d: %s", path, rec.Code, rec.Body)
			}
		}
		rec := httptest.NewRecorder()
		routes.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /v1/healthz answered %d after the requests: %s", rec.Code, rec.Body)
		}
	})
}
