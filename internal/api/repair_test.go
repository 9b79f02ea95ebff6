package api

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uagpnm/internal/hub"
	"uagpnm/internal/shard"
	"uagpnm/internal/updates"
)

// rawReply is one raw HTTP answer, read off a request goroutine.
type rawReply struct {
	status int
	body   []byte
	err    error
}

func rawPost(url string, body interface{}) <-chan rawReply {
	out := make(chan rawReply, 1)
	go func() {
		raw, err := json.Marshal(body)
		if err != nil {
			out <- rawReply{err: err}
			return
		}
		resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
		if err != nil {
			out <- rawReply{err: err}
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		_, err = buf.ReadFrom(resp.Body)
		out <- rawReply{status: resp.StatusCode, body: buf.Bytes(), err: err}
	}()
	return out
}

// served waits for a reply and decodes its 200 body into v.
func served(t *testing.T, what string, ch <-chan rawReply, v interface{}) {
	t.Helper()
	r := <-ch
	if r.err != nil {
		t.Fatalf("%s: %v", what, r.err)
	}
	if r.status != http.StatusOK {
		t.Fatalf("%s answered %d: %s", what, r.status, r.body)
	}
	if err := json.Unmarshal(r.body, v); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func sameJSON(t *testing.T, what string, got, want interface{}) {
	t.Helper()
	g, _ := json.Marshal(got)
	w, _ := json.Marshal(want)
	if !bytes.Equal(g, w) {
		t.Fatalf("%s = %s, want %s (in-process hub)", what, g, w)
	}
}

// TestMutationMeetingRepairIsServed: a worker dies while the hub is
// idle, and the next batch meets it and repairs the fleet. While that
// repair is held open, /v1/healthz answers 200 {"recovering":true}, and
// a raw POST /v1/apply and POST /v1/patterns wait for the repair on the
// hub's lock. They are not refused: once the repair ends both answer
// 200, with results equal to an in-process hub given the same inputs.
func TestMutationMeetingRepairIsServed(t *testing.T) {
	var victimDead atomic.Bool
	victimInner := shard.NewServer().Handler()
	victim := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if victimDead.Load() {
			http.Error(w, "killed", http.StatusServiceUnavailable)
			return
		}
		victimInner.ServeHTTP(w, r)
	}))
	t.Cleanup(victim.Close)
	release := make(chan struct{})
	var releaseOnce sync.Once
	releaseRepair := func() { releaseOnce.Do(func() { close(release) }) }
	survivorInner := shard.NewServer().Handler()
	survivor := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/rebuild" {
			<-release // the absorbed partitions' rebuild is the repair
		}
		survivorInner.ServeHTTP(w, r)
	}))
	t.Cleanup(survivor.Close)

	sharded := testHub(t, hub.Config{Shards: []string{survivor.URL, victim.URL}})
	t.Cleanup(func() { sharded.Close() })
	routes := NewServer(sharded, ServerConfig{}).Routes()
	var mutations atomic.Int32 // POSTs that reached the front end
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			mutations.Add(1)
		}
		routes.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	t.Cleanup(releaseRepair) // runs first: a parked repair would hang every Close
	local := testHub(t, hub.Config{})

	const p1, p2 = "node pm PM\nnode se SE\nedge pm se 2\n", "node se SE\nnode pm PM\nedge pm se 1\n"
	b1 := []updates.Update{{Kind: updates.DataEdgeInsert, From: 2, To: 1}}
	b2 := []updates.Update{{Kind: updates.DataEdgeDelete, From: 0, To: 1}}

	var reg1 ResultBody
	served(t, "register before the loss", rawPost(ts.URL+"/v1/patterns", RegisterRequest{Pattern: p1}), &reg1)
	id1, err := local.RegisterScript(strings.NewReader(p1))
	if err != nil || uint64(id1) != reg1.ID {
		t.Fatalf("in-process register = (%d, %v), want id %d", id1, err, reg1.ID)
	}

	// The victim dies idle; the next batch's op flush meets it and the
	// repair parks on the survivor's /rebuild.
	victimDead.Store(true)
	first := rawPost(ts.URL+"/v1/apply", ApplyRequest{Updates: EncodeUpdates(b1)})
	// Wait on the lock-free status: a healthz that reads "not yet
	// recovering" goes on to take the hub's lock, which the batch holds
	// until the repair this test parks.
	waitFor(t, "the batch to start a repair", func() bool {
		recovering, _ := sharded.Status()
		return recovering
	})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health HealthBody
	mustJSON(t, resp, http.StatusOK, &health)
	if !health.OK || !health.Recovering {
		t.Fatalf(`healthz mid-repair = %+v, want {"ok":true,"recovering":true}`, health)
	}

	apply := rawPost(ts.URL+"/v1/apply", ApplyRequest{Updates: EncodeUpdates(b2)})
	register := rawPost(ts.URL+"/v1/patterns", RegisterRequest{Pattern: p2})
	waitFor(t, "both mid-repair requests to reach the front end", func() bool { return mutations.Load() == 4 })
	for what, ch := range map[string]<-chan rawReply{"apply": apply, "register": register} {
		select {
		case r := <-ch:
			t.Fatalf("%s mid-repair answered %d before the repair ended: %s", what, r.status, r.body)
		default:
		}
	}
	releaseRepair()

	var firstResp, applyResp ApplyResponse
	var reg2 ResultBody
	served(t, "apply that met the loss", first, &firstResp)
	served(t, "apply sent mid-repair", apply, &applyResp)
	served(t, "register sent mid-repair", register, &reg2)
	if firstResp.Stats.Recovered != 1 {
		t.Fatalf("the batch that met the loss recovered %d losses, want 1", firstResp.Stats.Recovered)
	}
	if recovering, recovered := sharded.Status(); recovering || recovered != 1 {
		t.Fatalf("Status() = (%v, %d), want (false, 1)", recovering, recovered)
	}

	// The in-process reference: the same batches and registrations. The
	// mid-repair apply and register raced for the lock, so the apply is
	// compared on pattern 1's delta and both patterns on their final
	// results — neither depends on which of the two went first.
	wantFirst, _, err := local.ApplyBatch(t.Context(), hub.Batch{D: b1})
	if err != nil {
		t.Fatal(err)
	}
	sameJSON(t, "first apply deltas", firstResp.Deltas, []DeltaBody{EncodeDelta(wantFirst[0])})
	wantApply, _, err := local.ApplyBatch(t.Context(), hub.Batch{D: b2})
	if err != nil {
		t.Fatal(err)
	}
	var gotP1 *DeltaBody
	for i := range applyResp.Deltas {
		if applyResp.Deltas[i].Pattern == reg1.ID {
			gotP1 = &applyResp.Deltas[i]
		}
	}
	if gotP1 == nil {
		t.Fatalf("mid-repair apply answered no delta for pattern %d: %+v", reg1.ID, applyResp.Deltas)
	}
	sameJSON(t, "mid-repair apply delta", gotP1, EncodeDelta(wantApply[0]))
	id2, err := local.RegisterScript(strings.NewReader(p2))
	if err != nil || uint64(id2) != reg2.ID {
		t.Fatalf("in-process register = (%d, %v), want id %d", id2, err, reg2.ID)
	}
	for _, id := range []uint64{reg1.ID, reg2.ID} {
		var got ResultBody
		resp, err := http.Get(ts.URL + "/v1/patterns/" + strconv.FormatUint(id, 10))
		if err != nil {
			t.Fatal(err)
		}
		mustJSON(t, resp, http.StatusOK, &got)
		want, err := NewServer(local, ServerConfig{}).renderResult(t.Context(), hub.PatternID(id))
		if err != nil {
			t.Fatal(err)
		}
		sameJSON(t, "final result of pattern "+strconv.FormatUint(id, 10), got.Nodes, want.Nodes)
	}
}
