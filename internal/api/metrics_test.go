package api

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"uagpnm/internal/hub"
	"uagpnm/internal/obs"
	"uagpnm/internal/updates"
)

// metricsServer builds a test server whose hub reports into a private
// registry, so assertions see only this test's telemetry.
func metricsServer(t *testing.T) (*httptest.Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	h := testHub(t, hub.Config{Metrics: reg})
	ts := httptest.NewServer(NewServer(h, ServerConfig{PollTimeout: 2 * time.Second}).Routes())
	t.Cleanup(ts.Close)
	return ts, reg
}

func getBody(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(raw)
}

// TestMetricsEndpoint: /v1/metrics (and the /metrics alias) serve the
// hub's registry in Prometheus text format, with the batch counters
// advancing as batches apply.
func TestMetricsEndpoint(t *testing.T) {
	ts, _ := metricsServer(t)
	c := testClient(t, ts)
	ctx := context.Background()

	if _, err := c.Register(ctx, pmsePattern()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		b := hub.Batch{D: []updates.Update{{Kind: updates.DataEdgeInsert, From: 2, To: 1}}}
		if i == 1 {
			b.D[0].Kind = updates.DataEdgeDelete
		}
		if _, _, err := c.ApplyBatch(ctx, b); err != nil {
			t.Fatal(err)
		}
	}

	resp, body := getBody(t, ts.URL+"/v1/metrics")
	if resp.StatusCode != 200 {
		t.Fatalf("GET /v1/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE gpnm_hub_batches_total counter\n",
		"gpnm_hub_batches_total 2\n",
		"# TYPE gpnm_batch_phase_seconds histogram\n",
		`gpnm_batch_phase_seconds_count{phase="slen_sync"} 2` + "\n",
		`gpnm_batch_phase_seconds_count{phase="wake_plan"} 2` + "\n",
		`gpnm_batch_phase_seconds_count{phase="amend_fan"} 2` + "\n",
		"gpnm_hub_seq 2\n",
		"gpnm_hub_patterns 1\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/v1/metrics missing %q", want)
		}
	}

	if _, alias := getBody(t, ts.URL+"/metrics"); alias != body {
		t.Error("/metrics alias disagrees with /v1/metrics")
	}
}

// TestTraceEndpoint: /v1/trace returns the per-batch phase traces with
// the hub spans present, newest last, and honours ?n=.
func TestTraceEndpoint(t *testing.T) {
	ts, _ := metricsServer(t)
	c := testClient(t, ts)
	ctx := context.Background()

	// Before any batch: an empty (non-null) list.
	_, body := getBody(t, ts.URL+"/v1/trace")
	var tr TracesResponse
	if err := json.Unmarshal([]byte(body), &tr); err != nil || tr.Traces == nil || len(tr.Traces) != 0 {
		t.Fatalf("empty trace body = %q (err %v)", body, err)
	}

	if _, err := c.Register(ctx, pmsePattern()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		kind := updates.DataEdgeInsert
		if i%2 == 1 {
			kind = updates.DataEdgeDelete
		}
		if _, _, err := c.ApplyBatch(ctx, hub.Batch{D: []updates.Update{{Kind: kind, From: 2, To: 1}}}); err != nil {
			t.Fatal(err)
		}
	}

	traces, err := c.Traces(ctx, 0)
	if err != nil || len(traces) != 3 {
		t.Fatalf("Traces = %d traces (err %v), want 3", len(traces), err)
	}
	last := traces[2]
	if last.Seq != 3 || last.DataUpdates != 1 || last.Patterns != 1 {
		t.Fatalf("last trace = %+v", last)
	}
	for _, span := range []string{"slen_sync", "wake_plan", "amend_fan"} {
		found := false
		for _, sp := range last.Spans {
			if sp.Name == span {
				found = true
			}
		}
		if !found {
			t.Errorf("trace seq 3 missing span %q (spans %v)", span, last.Spans)
		}
	}

	if traces, err = c.Traces(ctx, 2); err != nil || len(traces) != 2 || traces[0].Seq != 2 {
		t.Fatalf("Traces(n=2) = %+v (err %v), want seqs 2,3", traces, err)
	}
	lastTr, ok, err := c.LastTrace(ctx)
	if err != nil || !ok || lastTr.Seq != 3 {
		t.Fatalf("LastTrace = %+v ok=%v err=%v", lastTr, ok, err)
	}

	if resp, _ := getBody(t, ts.URL+"/v1/trace?n=-1"); resp.StatusCode != 400 {
		t.Fatalf("GET /v1/trace?n=-1: status %d, want 400", resp.StatusCode)
	}
}

// TestPatternStatsEndpoint: /v1/patterns/{id}/stats reports the
// registration's per-query cost counters through the SDK.
func TestPatternStatsEndpoint(t *testing.T) {
	ts, _ := metricsServer(t)
	c := testClient(t, ts)
	ctx := context.Background()

	id, err := c.Register(ctx, pmsePattern())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.ApplyBatch(ctx, hub.Batch{D: []updates.Update{
		{Kind: updates.DataEdgeInsert, From: 2, To: 1}}}); err != nil {
		t.Fatal(err)
	}

	st, err := c.Stats(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.DataUpdates != 1 {
		t.Fatalf("stats.DataUpdates = %d, want 1 (stats %+v)", st.DataUpdates, st)
	}
	var body QueryStatsBody
	if _, raw := getBody(t, fmt.Sprintf("%s/v1/patterns/%d/stats", ts.URL, id)); json.Unmarshal([]byte(raw), &body) != nil || !strings.Contains(raw, `"seed_pairs"`) {
		t.Fatalf("stats body %s: want a seed_pairs field", raw)
	}
	if st.SeedPairs == 0 || body.SeedPairs != st.SeedPairs || body.SeedNodes != st.SeedNodes {
		t.Fatalf("stats %+v, wire %+v: want the pass's seed pairs (> 0) as seed_pairs", st, body)
	}

	if _, err := c.Stats(ctx, id+99); err == nil {
		t.Fatal("Stats on unknown pattern did not error")
	}
}

// TestHealthzTelemetry: /v1/healthz carries the build identity, uptime,
// and (after the first batch) the last batch's phase timings.
func TestHealthzTelemetry(t *testing.T) {
	ts, _ := metricsServer(t)
	c := testClient(t, ts)
	ctx := context.Background()

	_, body := getBody(t, ts.URL+"/v1/healthz")
	var hb HealthBody
	if err := json.Unmarshal([]byte(body), &hb); err != nil {
		t.Fatal(err)
	}
	if !hb.OK || hb.Version == "" {
		t.Fatalf("healthz before batches = %+v, want ok with a version", hb)
	}
	if hb.LastBatch != nil {
		t.Fatalf("healthz.last_batch before any batch = %+v, want absent", hb.LastBatch)
	}

	if _, err := c.Register(ctx, pmsePattern()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.ApplyBatch(ctx, hub.Batch{D: []updates.Update{
		{Kind: updates.DataEdgeInsert, From: 2, To: 1}}}); err != nil {
		t.Fatal(err)
	}

	_, body = getBody(t, ts.URL+"/v1/healthz")
	hb = HealthBody{}
	if err := json.Unmarshal([]byte(body), &hb); err != nil {
		t.Fatal(err)
	}
	if hb.UptimeSeconds <= 0 {
		t.Fatalf("healthz.uptime_seconds = %g, want > 0", hb.UptimeSeconds)
	}
	if hb.LastBatch == nil || hb.LastBatch.Seq != 1 || hb.LastBatch.DataUpdates != 1 {
		t.Fatalf("healthz.last_batch = %+v, want seq 1 with 1 data update", hb.LastBatch)
	}
}
