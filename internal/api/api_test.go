package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"uagpnm/internal/graph"
	"uagpnm/internal/hub"
	"uagpnm/internal/pattern"
	"uagpnm/internal/shard"
	"uagpnm/internal/updates"
)

// testHub builds the quickstart-sized hub: 0:PM, 1:SE, 2:PM with 0→1.
func testHub(t *testing.T, cfg hub.Config) *hub.Hub {
	t.Helper()
	g := graph.New(nil)
	g.AddNode("PM")
	g.AddNode("SE")
	g.AddNode("PM")
	g.AddEdge(0, 1)
	if cfg.Horizon == 0 {
		cfg.Horizon = 3
	}
	h, err := hub.New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	h := testHub(t, hub.Config{})
	ts := httptest.NewServer(NewServer(h, ServerConfig{PollTimeout: 2 * time.Second}).Routes())
	t.Cleanup(ts.Close)
	return ts
}

func testClient(t *testing.T, ts *httptest.Server) *Client {
	t.Helper()
	c, err := Dial(context.Background(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// pmsePattern is the PM-within-2-of-SE pattern of the smoke tests.
func pmsePattern() *pattern.Graph {
	p := pattern.New(graph.NewLabels())
	pm := p.AddNamedNode("pm", "PM")
	se := p.AddNamedNode("se", "SE")
	p.AddEdge(pm, se, 2)
	return p
}

func mustJSON(t *testing.T, resp *http.Response, wantStatus int, into interface{}) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var e ErrorBody
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("status %d (want %d): %s (%s)", resp.StatusCode, wantStatus, e.Error, e.Code)
	}
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatal(err)
		}
	}
}

func post(t *testing.T, url string, body interface{}) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestClientServiceRoundTrip drives the full Service surface through
// Dial → client → /v1 handlers → hub.
func TestClientServiceRoundTrip(t *testing.T) {
	ts := testServer(t)
	c := testClient(t, ts)
	ctx := context.Background()

	id, err := c.Register(ctx, pmsePattern())
	if err != nil {
		t.Fatal(err)
	}

	// Initial state: only PM 0 matches (PM 2 has no SE in range).
	if got, err := c.Result(ctx, id, 0); err != nil || !got.Equal([]uint32{0}) {
		t.Fatalf("initial result = %v (err %v), want {0}", got, err)
	}
	p, m, seq, err := c.Snapshot(ctx, id)
	if err != nil || seq != 0 {
		t.Fatalf("snapshot err %v seq %d", err, seq)
	}
	if p.NumNodes() != 2 || p.Name(0) != "pm" || p.LabelName(1) != "SE" {
		t.Fatalf("snapshot pattern = %v", p)
	}
	if !m.Total() || !m.Nodes(0).Equal([]uint32{0}) {
		t.Fatalf("snapshot match total=%v nodes=%v", m.Total(), m.Nodes(0))
	}

	// Typed apply: connect the second PM; expect an added match.
	deltas, stats, err := c.ApplyBatch(ctx, hub.Batch{D: []updates.Update{
		{Kind: updates.DataEdgeInsert, From: 2, To: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Seq != 1 || stats.DataUpdates != 1 || stats.Patterns != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if len(deltas) != 1 || deltas[0].Pattern != id || len(deltas[0].Nodes) != 1 ||
		!deltas[0].Nodes[0].Added.Equal([]uint32{2}) {
		t.Fatalf("deltas = %+v", deltas)
	}

	// Long-poll from 0: the retained delta comes straight back.
	ds, resync, err := c.WaitDeltas(ctx, id, 0)
	if err != nil || resync || len(ds) != 1 || ds[0].Seq != 1 {
		t.Fatalf("WaitDeltas = %v resync=%v err=%v", ds, resync, err)
	}

	// Long-poll past the tip: a concurrent apply must wake it. The poll's
	// context is bounded, so a poll that is never woken fails the test
	// instead of re-arming until the package timeout.
	type pollOut struct {
		ds  []hub.Delta
		err error
	}
	const pollDeadline = 10 * time.Second
	pollCtx, cancel := context.WithTimeout(ctx, pollDeadline)
	defer cancel()
	ch := make(chan pollOut, 1)
	go func() {
		ds, _, err := c.WaitDeltas(pollCtx, id, 1)
		ch <- pollOut{ds, err}
	}()
	time.Sleep(50 * time.Millisecond)
	if _, _, err := c.ApplyBatch(ctx, hub.Batch{D: []updates.Update{
		{Kind: updates.DataEdgeDelete, From: 2, To: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	var got pollOut
	select {
	case got = <-ch:
	case <-time.After(pollDeadline + 5*time.Second):
		t.Fatalf("the long poll past seq 1 was not woken by the apply within %v", pollDeadline)
	}
	if got.err != nil || len(got.ds) != 1 || !got.ds[0].Nodes[0].Removed.Equal([]uint32{2}) {
		t.Fatalf("woken poll = %+v (err %v)", got.ds, got.err)
	}

	// Pattern-side updates travel typed too.
	if _, _, err := c.ApplyBatch(ctx, hub.Batch{P: map[hub.PatternID][]updates.Update{
		id: {{Kind: updates.PatternEdgeDelete, From: 0, To: 1}},
	}}); err != nil {
		t.Fatal(err)
	}
	if p, _, _, err := c.Snapshot(ctx, id); err != nil || p.NumEdges() != 0 {
		t.Fatalf("pattern after ΔGP: %d edges (err %v)", p.NumEdges(), err)
	}

	// Unregister; everything afterwards maps to ErrUnknownPattern.
	if err := c.Unregister(ctx, id); err != nil {
		t.Fatal(err)
	}
	if err := c.Unregister(ctx, id); !errors.Is(err, hub.ErrUnknownPattern) {
		t.Fatalf("second unregister = %v, want ErrUnknownPattern", err)
	}
	if _, err := c.Result(ctx, id, 0); !errors.Is(err, hub.ErrUnknownPattern) {
		t.Fatalf("result after unregister = %v, want ErrUnknownPattern", err)
	}
	if _, _, err := c.ApplyBatch(ctx, hub.Batch{P: map[hub.PatternID][]updates.Update{
		id: {{Kind: updates.PatternEdgeDelete, From: 0, To: 1}},
	}}); !errors.Is(err, hub.ErrUnknownPattern) {
		t.Fatalf("apply after unregister = %v, want ErrUnknownPattern", err)
	}
}

// TestClientWaitDeltasTimeoutAndResync pins the ctx-expiry and resync
// paths of the long-poll loop.
func TestClientWaitDeltasTimeoutAndResync(t *testing.T) {
	h := testHub(t, hub.Config{History: 1})
	ts := httptest.NewServer(NewServer(h, ServerConfig{PollTimeout: 250 * time.Millisecond}).Routes())
	t.Cleanup(ts.Close)
	c := testClient(t, ts)
	ctx := context.Background()

	id, err := c.Register(ctx, pmsePattern())
	if err != nil {
		t.Fatal(err)
	}

	// No deltas yet: a bounded wait must come back with ctx's error.
	short, cancel := context.WithTimeout(ctx, 300*time.Millisecond)
	defer cancel()
	if _, _, err := c.WaitDeltas(short, id, 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("empty poll err = %v, want deadline", err)
	}

	// Two delta-producing batches overflow the history of 1: a
	// subscriber at 0 must be told to resync.
	for _, b := range []hub.Batch{
		{D: []updates.Update{{Kind: updates.DataEdgeInsert, From: 2, To: 1}}},
		{D: []updates.Update{{Kind: updates.DataEdgeDelete, From: 2, To: 1}}},
	} {
		if _, _, err := c.ApplyBatch(ctx, b); err != nil {
			t.Fatal(err)
		}
	}
	ds, resync, err := c.WaitDeltas(ctx, id, 0)
	if err != nil || !resync || len(ds) != 0 {
		t.Fatalf("overflowed poll = (%v, %v, %v), want resync", ds, resync, err)
	}
}

// TestRegisterWireForms covers the three register bodies: DSL, typed
// graph, and the both-set rejection.
func TestRegisterWireForms(t *testing.T) {
	ts := testServer(t)

	var reg ResultBody
	mustJSON(t, post(t, ts.URL+"/v1/patterns", RegisterRequest{
		Pattern: "node pm PM\nnode se SE\nedge pm se 2\n",
	}), http.StatusOK, &reg)
	if reg.ID == 0 || !reg.Total || len(reg.Nodes) != 2 || reg.Nodes[0].Matches[0] != 0 {
		t.Fatalf("DSL register = %+v", reg)
	}

	body := EncodePattern(pmsePattern())
	var reg2 ResultBody
	mustJSON(t, post(t, ts.URL+"/v1/patterns", RegisterRequest{Graph: &body}), http.StatusOK, &reg2)
	if reg2.ID <= reg.ID || !reg2.Total {
		t.Fatalf("typed register = %+v", reg2)
	}

	resp := post(t, ts.URL+"/v1/patterns", RegisterRequest{Pattern: "node a A\n", Graph: &body})
	var e ErrorBody
	mustJSON(t, resp, http.StatusBadRequest, &e)
	if e.Code != CodeBadRequest {
		t.Fatalf("both-set register code = %q", e.Code)
	}
}

// TestPatternBodyRoundTrip pins the typed pattern codec on the shapes
// the DSL cannot carry: duplicate display names and tombstoned ids.
func TestPatternBodyRoundTrip(t *testing.T) {
	p := pattern.New(graph.NewLabels())
	a := p.AddNode("SE") // name "SE"
	b := p.AddNode("SE") // duplicate name "SE"
	c := p.AddNode("TE")
	p.AddEdge(a, b, 2)
	p.AddEdge(b, c, pattern.Star)
	p.RemoveNode(c) // tombstone id 2

	got, err := EncodePattern(p).Materialise(graph.NewLabels())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumIDs() != 3 || got.NumNodes() != 2 || got.Alive(2) {
		t.Fatalf("round trip ids: NumIDs=%d NumNodes=%d alive2=%v", got.NumIDs(), got.NumNodes(), got.Alive(2))
	}
	if bd, ok := got.EdgeBound(a, b); !ok || bd != 2 {
		t.Fatalf("edge a->b bound = %v, %v", bd, ok)
	}
	if got.LabelName(a) != "SE" || got.LabelName(b) != "SE" {
		t.Fatalf("labels = %q, %q", got.LabelName(a), got.LabelName(b))
	}
}

// TestSnapshotFullyTombstonedPattern: ΔGP may legally delete every
// pattern node; the remote Snapshot must round-trip that state exactly
// as the local hub serves it, not reject the wire body.
func TestSnapshotFullyTombstonedPattern(t *testing.T) {
	ts := testServer(t)
	c := testClient(t, ts)
	ctx := context.Background()

	id, err := c.Register(ctx, pmsePattern())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.ApplyBatch(ctx, hub.Batch{P: map[hub.PatternID][]updates.Update{
		id: {
			{Kind: updates.PatternNodeDelete, Node: 0},
			{Kind: updates.PatternNodeDelete, Node: 1},
		},
	}}); err != nil {
		t.Fatal(err)
	}
	p, m, seq, err := c.Snapshot(ctx, id)
	if err != nil {
		t.Fatalf("snapshot of emptied pattern: %v", err)
	}
	if seq != 1 || p.NumNodes() != 0 || p.NumIDs() != 2 {
		t.Fatalf("emptied snapshot: seq=%d nodes=%d ids=%d", seq, p.NumNodes(), p.NumIDs())
	}
	_ = m // no alive nodes: nothing to compare beyond shape
}

// TestUpdateWireCodec round-trips every update kind.
func TestUpdateWireCodec(t *testing.T) {
	us := []updates.Update{
		{Kind: updates.DataEdgeInsert, From: 1, To: 2},
		{Kind: updates.DataEdgeDelete, From: 2, To: 1},
		{Kind: updates.DataNodeInsert, Node: 7, Labels: []string{"A", "B"}},
		{Kind: updates.DataNodeDelete, Node: 7},
		{Kind: updates.PatternEdgeInsert, From: 0, To: 1, Bound: 3},
		{Kind: updates.PatternEdgeInsert, From: 1, To: 0, Bound: pattern.Star},
		{Kind: updates.PatternEdgeDelete, From: 0, To: 1},
		{Kind: updates.PatternNodeInsert, Node: 2, Labels: []string{"C"}},
		{Kind: updates.PatternNodeDelete, Node: 2},
	}
	enc := EncodeUpdates(us)
	raw, err := json.Marshal(enc)
	if err != nil {
		t.Fatal(err)
	}
	var dec []Update
	if err := json.Unmarshal(raw, &dec); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeUpdates(dec)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(us) {
		t.Fatalf("len %d != %d", len(got), len(us))
	}
	for i := range us {
		if got[i].Kind != us[i].Kind || got[i].From != us[i].From || got[i].To != us[i].To ||
			got[i].Node != us[i].Node || got[i].Bound != us[i].Bound || len(got[i].Labels) != len(us[i].Labels) {
			t.Fatalf("update %d: %+v != %+v", i, got[i], us[i])
		}
	}
	if _, err := (Update{Op: "??"}).Decode(); err == nil {
		t.Fatal("unknown op must error")
	}
}

// TestV1RoutesRawHTTP drives the /v1 routes end to end with nothing but
// net/http — what a curl user sees, without the client SDK in between.
func TestV1RoutesRawHTTP(t *testing.T) {
	ts := testServer(t)

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health HealthBody
	mustJSON(t, resp, http.StatusOK, &health)
	if !health.OK || health.Nodes != 3 {
		t.Fatalf("health = %+v", health)
	}

	var reg ResultBody
	mustJSON(t, post(t, ts.URL+"/v1/patterns", RegisterRequest{
		Pattern: "node pm PM\nnode se SE\nedge pm se 2\n",
	}), http.StatusOK, &reg)
	if reg.ID == 0 || !reg.Total || len(reg.Nodes) != 2 {
		t.Fatalf("register = %+v", reg)
	}
	if reg.Nodes[0].Name != "pm" || len(reg.Nodes[0].Matches) != 1 || reg.Nodes[0].Matches[0] != 0 {
		t.Fatalf("initial pm result = %+v", reg.Nodes[0])
	}

	var applied ApplyResponse
	mustJSON(t, post(t, ts.URL+"/v1/apply", ApplyRequest{Updates: []Update{{Op: "+e", From: 2, To: 1}}}), http.StatusOK, &applied)
	if applied.Seq != 1 || len(applied.Deltas) != 1 {
		t.Fatalf("apply = %+v", applied)
	}
	d := applied.Deltas[0]
	if d.Pattern != reg.ID || len(d.Nodes) != 1 || len(d.Nodes[0].Added) != 1 || d.Nodes[0].Added[0] != 2 {
		t.Fatalf("delta = %+v", d)
	}

	var res ResultBody
	resp, err = http.Get(fmt.Sprintf("%s/v1/patterns/%d", ts.URL, reg.ID))
	if err != nil {
		t.Fatal(err)
	}
	mustJSON(t, resp, http.StatusOK, &res)
	if len(res.Nodes[0].Matches) != 2 {
		t.Fatalf("result after apply = %+v", res.Nodes[0])
	}

	var polled DeltasResponse
	resp, err = http.Get(fmt.Sprintf("%s/v1/patterns/%d/deltas?since=0&timeout=1s", ts.URL, reg.ID))
	if err != nil {
		t.Fatal(err)
	}
	mustJSON(t, resp, http.StatusOK, &polled)
	if polled.Seq != 1 || len(polled.Deltas) != 1 {
		t.Fatalf("poll = %+v", polled)
	}

	// Disconnect the second PM again, then relax the pattern edge
	// through a pattern-side update: the relaxation re-admits it.
	mustJSON(t, post(t, ts.URL+"/v1/apply", ApplyRequest{Updates: []Update{{Op: "-e", From: 2, To: 1}}}), http.StatusOK, &applied)
	mustJSON(t, post(t, ts.URL+"/v1/apply", ApplyRequest{
		Patterns: map[string][]Update{fmt.Sprint(reg.ID): {{Op: "-pe", From: 0, To: 1}}},
	}), http.StatusOK, &applied)
	if len(applied.Deltas[0].Nodes) == 0 {
		t.Fatalf("pattern relaxation produced no delta: %+v", applied)
	}

	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/patterns/%d", ts.URL, reg.ID), nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var okBody UnregisterResponse
	mustJSON(t, resp, http.StatusOK, &okBody)
	resp, err = http.Get(fmt.Sprintf("%s/v1/patterns/%d", ts.URL, reg.ID))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("fetch after unregister: status %d", resp.StatusCode)
	}
}

// TestLegacyAliases pins that the pre-versioning unversioned routes are
// gone: only /v1 is mounted, plus GET /metrics, the conventional scrape
// path.
func TestLegacyAliases(t *testing.T) {
	ts := testServer(t)
	for _, route := range []struct{ method, path string }{
		{http.MethodGet, "/healthz"}, {http.MethodPost, "/patterns"},
		{http.MethodGet, "/patterns/1"}, {http.MethodPost, "/apply"},
	} {
		req, _ := http.NewRequest(route.method, ts.URL+route.path, strings.NewReader("{}"))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s: status %d, want 404 (unversioned aliases are gone)", route.method, route.path, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
}

// TestValidationCodes pins status + machine-readable code per failure.
func TestValidationCodes(t *testing.T) {
	ts := testServer(t)

	for _, tc := range []struct {
		name   string
		do     func() *http.Response
		status int
		code   string
	}{
		{"bad pattern DSL", func() *http.Response {
			return post(t, ts.URL+"/v1/patterns", RegisterRequest{Pattern: "nope"})
		}, http.StatusBadRequest, CodeBadPattern},
		{"empty pattern", func() *http.Response {
			return post(t, ts.URL+"/v1/patterns", RegisterRequest{Pattern: "# nothing\n"})
		}, http.StatusBadRequest, CodeBadPattern},
		{"pattern update on data side (typed)", func() *http.Response {
			return post(t, ts.URL+"/v1/apply", ApplyRequest{Updates: []Update{{Op: "+pe", From: 0, To: 1, Bound: "2"}}})
		}, http.StatusBadRequest, CodeBadBatch},
		{"unknown update op", func() *http.Response {
			return post(t, ts.URL+"/v1/apply", ApplyRequest{Updates: []Update{{Op: "+x"}}})
		}, http.StatusBadRequest, CodeBadBatch},
		{"two concatenated apply bodies", func() *http.Response {
			body := `{"updates":[{"op":"+e","from":2,"to":1}]}{"updates":[{"op":"-e","from":2,"to":1}]}`
			resp, err := http.Post(ts.URL+"/v1/apply", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}, http.StatusBadRequest, CodeBadRequest},
		{"unknown pattern in apply", func() *http.Response {
			return post(t, ts.URL+"/v1/apply", ApplyRequest{Patterns: map[string][]Update{"99": {{Op: "-pe", From: 0, To: 1}}}})
		}, http.StatusNotFound, CodeUnknownPattern},
		{"unknown pattern result", func() *http.Response {
			resp, err := http.Get(ts.URL + "/v1/patterns/99")
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}, http.StatusNotFound, CodeUnknownPattern},
		{"unknown pattern snapshot", func() *http.Response {
			resp, err := http.Get(ts.URL + "/v1/patterns/99/snapshot")
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}, http.StatusNotFound, CodeUnknownPattern},
		{"bad id", func() *http.Response {
			resp, err := http.Get(ts.URL + "/v1/patterns/xyz")
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}, http.StatusBadRequest, CodeBadRequest},
		{"non-canonical pattern id in apply", func() *http.Response {
			// Pattern 1 exists, so only the spelling of its id is wrong:
			// "01" and "1" in one body would be one key twice.
			mustJSON(t, post(t, ts.URL+"/v1/patterns", RegisterRequest{Pattern: "node pm PM\nnode se SE\nedge pm se 2\n"}), http.StatusOK, &ResultBody{})
			return post(t, ts.URL+"/v1/apply", ApplyRequest{Patterns: map[string][]Update{"01": {}}})
		}, http.StatusBadRequest, CodeBadRequest},
	} {
		resp := tc.do()
		var e ErrorBody
		mustJSON(t, resp, tc.status, &e)
		if e.Code != tc.code {
			t.Fatalf("%s: code %q, want %q", tc.name, e.Code, tc.code)
		}
		if e.Error == "" {
			t.Fatalf("%s: empty error message", tc.name)
		}
	}
}

// TestErrorCodeSentinels pins the wire-code → sentinel mapping the
// client SDK's errors.Is contract depends on.
func TestErrorCodeSentinels(t *testing.T) {
	cases := []struct {
		code string
		want error
	}{
		{CodeUnknownPattern, hub.ErrUnknownPattern},
		{CodeSubstrateLost, shard.ErrSubstrateLost},
	}
	for _, tc := range cases {
		err := &Error{Status: 503, Code: tc.code, Message: "x"}
		if !errors.Is(err, tc.want) {
			t.Fatalf("code %q does not unwrap to its sentinel", tc.code)
		}
	}
	if err := (&Error{Status: 400, Code: CodeBadBatch, Message: "x"}); errors.Is(err, shard.ErrSubstrateLost) {
		t.Fatal("bad_batch must not unwrap to a substrate sentinel")
	}
}
