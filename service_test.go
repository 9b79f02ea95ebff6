package uagpnm

import (
	"context"
	"errors"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"uagpnm/internal/shard"
)

// serviceGraph builds the quickstart graph: 0:PM→1:SE, 2:PM isolated.
func serviceGraph() *Graph {
	g := NewGraph()
	g.AddNode("PM")
	g.AddNode("SE")
	g.AddNode("PM")
	g.AddEdge(0, 1)
	return g
}

func servicePattern(g *Graph) *Pattern {
	p := NewPattern(g)
	pm := p.AddNode("PM")
	se := p.AddNode("SE")
	p.AddEdge(pm, se, 2)
	return p
}

// TestServiceLocalAndRemote runs the identical scenario against both
// Service implementations — the in-process Hub and a Dial client over
// NewHandler — through the interface alone, asserting the same answers
// at every step. This is the acceptance pin for "one Service interface
// for local and remote hubs".
func TestServiceLocalAndRemote(t *testing.T) {
	ctx := context.Background()

	makeLocal := func(t *testing.T) Service {
		h, err := NewHub(serviceGraph(), HubOptions{Horizon: 3})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	makeRemote := func(t *testing.T) Service {
		h, err := NewHub(serviceGraph(), HubOptions{Horizon: 3})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(NewHandler(h, HandlerOptions{PollTimeout: 2 * time.Second}))
		t.Cleanup(ts.Close)
		c, err := Dial(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}

	for _, tc := range []struct {
		name string
		make func(t *testing.T) Service
	}{
		{"hub", makeLocal},
		{"dial", makeRemote},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc := tc.make(t)

			id, err := svc.Register(ctx, servicePattern(NewGraph()))
			if err != nil {
				t.Fatal(err)
			}
			if got, err := svc.Result(ctx, id, 0); err != nil || !got.Equal(NodeSet{0}) {
				t.Fatalf("initial result = %v (err %v), want {0}", got, err)
			}

			deltas, stats, err := svc.ApplyBatch(ctx, HubBatch{D: []Update{InsertEdge(2, 1)}})
			if err != nil {
				t.Fatal(err)
			}
			if stats.Seq != 1 || len(deltas) != 1 || len(deltas[0].Nodes) != 1 ||
				!deltas[0].Nodes[0].Added.Equal(NodeSet{2}) {
				t.Fatalf("apply = %+v / %+v", deltas, stats)
			}

			p, m, seq, err := svc.Snapshot(ctx, id)
			if err != nil || seq != 1 {
				t.Fatalf("snapshot err %v seq %d", err, seq)
			}
			if p.NumNodes() != 2 || !m.Total() || !m.Nodes(0).Equal(NodeSet{0, 2}) {
				t.Fatalf("snapshot = %v nodes / total %v / %v", p.NumNodes(), m.Total(), m.Nodes(0))
			}

			ds, resync, err := svc.WaitDeltas(ctx, id, 0)
			if err != nil || resync || len(ds) != 1 || ds[0].Seq != 1 {
				t.Fatalf("WaitDeltas = %v resync=%v err=%v", ds, resync, err)
			}

			// ctx expiry unblocks an ahead-of-tip poll with ctx's error.
			short, cancel := context.WithTimeout(ctx, 150*time.Millisecond)
			_, _, err = svc.WaitDeltas(short, id, 1)
			cancel()
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("ahead-of-tip poll err = %v, want deadline", err)
			}

			if err := svc.Unregister(ctx, id); err != nil {
				t.Fatal(err)
			}
			if _, err := svc.Result(ctx, id, 0); !errors.Is(err, ErrUnknownPattern) {
				t.Fatalf("result after unregister = %v, want ErrUnknownPattern", err)
			}
			if _, _, _, err := svc.Snapshot(ctx, id); !errors.Is(err, ErrUnknownPattern) {
				t.Fatalf("snapshot after unregister = %v, want ErrUnknownPattern", err)
			}
			if _, _, err := svc.WaitDeltas(ctx, id, 0); !errors.Is(err, ErrUnknownPattern) {
				t.Fatalf("poll after unregister = %v, want ErrUnknownPattern", err)
			}
			if err := svc.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDialRefusesDeadServer: Dial verifies liveness up front.
func TestDialRefusesDeadServer(t *testing.T) {
	ts := httptest.NewServer(nil)
	addr := ts.URL
	ts.Close()
	if _, err := Dial(addr); err == nil {
		t.Fatal("Dial against a dead server must error")
	}
}

// TestEmptyPatternRejectedByEveryEntryPoint: a pattern with no nodes is
// refused with the same "hub: empty pattern" error however it reaches the
// hub — Hub.Register, Hub.RegisterScript, and a Dial client's Register
// (POST /v1/patterns, which goes through the hub's RegisterFunc) — and
// leaves nothing registered.
func TestEmptyPatternRejectedByEveryEntryPoint(t *testing.T) {
	ctx := context.Background()
	h, err := NewHub(serviceGraph(), HubOptions{Horizon: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	ts := httptest.NewServer(NewHandler(h, HandlerOptions{}))
	t.Cleanup(ts.Close)
	c, err := Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	for _, tc := range []struct {
		name     string
		register func() (PatternID, error)
	}{
		{"Hub.Register", func() (PatternID, error) { return h.Register(ctx, NewPattern(h.Graph())) }},
		{"Hub.RegisterScript", func() (PatternID, error) { return h.RegisterScript(strings.NewReader("# no nodes\n")) }},
		{"Client.Register", func() (PatternID, error) { return c.Register(ctx, NewPattern(NewGraph())) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			id, err := tc.register()
			if err == nil || !strings.Contains(err.Error(), "hub: empty pattern") {
				t.Fatalf("register = (%d, %v), want the hub: empty pattern error", id, err)
			}
			if got := h.Patterns(); len(got) != 0 {
				t.Fatalf("rejected pattern left registrations behind: %v", got)
			}
		})
	}
}

// TestHubCloseLeavesNoGoroutines: a hub that has applied batches and held
// a parked WaitDeltas gives every goroutine back once it is closed — the
// shard clients' connections, the long-poll's context watcher. A batch
// itself starts nothing that outlives it, so the count returns to what
// it was before NewHub.
func TestHubCloseLeavesNoGoroutines(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		opts func(t *testing.T) HubOptions
	}{
		{"in-process", func(*testing.T) HubOptions {
			return HubOptions{Horizon: 3}
		}},
		{"two loopback shard workers", func(t *testing.T) HubOptions {
			var addrs []string
			for i := 0; i < 2; i++ {
				ws := httptest.NewServer(shard.NewServer().Handler())
				t.Cleanup(ws.Close)
				addrs = append(addrs, ws.URL)
			}
			return HubOptions{Horizon: 3, Shards: addrs}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts(t) // workers start before the baseline is taken
			before := runtime.NumGoroutine()

			h, err := NewHub(serviceGraph(), opts)
			if err != nil {
				t.Fatal(err)
			}
			id, err := h.Register(ctx, servicePattern(h.Graph()))
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range [][]Update{{InsertEdge(2, 1)}, {DeleteEdge(0, 1)}, {InsertEdge(0, 1), DeleteEdge(2, 1)}} {
				if _, _, err := h.ApplyBatch(ctx, HubBatch{D: b}); err != nil {
					t.Fatal(err)
				}
			}
			pollCtx, cancel := context.WithCancel(ctx)
			polled := make(chan error, 1)
			go func() {
				_, _, err := h.WaitDeltas(pollCtx, id, h.Seq()) // nothing newer: parks
				polled <- err
			}()
			time.Sleep(20 * time.Millisecond) // let it park

			if err := h.Close(); err != nil {
				t.Fatal(err)
			}
			cancel()
			if err := <-polled; !errors.Is(err, context.Canceled) {
				t.Fatalf("parked WaitDeltas returned %v, want context.Canceled", err)
			}

			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines before NewHub, %d still running after Close:\n%s",
						before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// TestHubStatsRefusesAfterLoss: once the hub's only shard worker is lost
// and the hub poisoned, Stats reports the loss like every other read — a
// loss mid-fan-out can leave some registrations' stats updated and
// others not.
func TestHubStatsRefusesAfterLoss(t *testing.T) {
	ctx := context.Background()
	ws := httptest.NewServer(shard.NewServer().Handler())
	defer ws.Close()
	h, err := NewHub(serviceGraph(), HubOptions{Horizon: 3, Shards: []string{ws.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	id, err := h.Register(ctx, servicePattern(h.Graph()))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.ApplyBatch(ctx, HubBatch{D: []Update{InsertEdge(2, 1)}}); err != nil {
		t.Fatal(err)
	}
	if st, err := h.Stats(id); err != nil || st.Passes == 0 {
		t.Fatalf("Stats on a healthy hub = (%+v, %v), want a pass", st, err)
	}

	ws.Close()
	if _, _, err := h.ApplyBatch(ctx, HubBatch{D: []Update{DeleteEdge(2, 1)}}); !errors.Is(err, ErrSubstrateLost) {
		t.Fatalf("ApplyBatch against a dead worker = %v, want ErrSubstrateLost", err)
	}
	if st, err := h.Stats(id); !errors.Is(err, ErrSubstrateLost) {
		t.Fatalf("Stats on a poisoned hub = (%+v, %v), want ErrSubstrateLost", st, err)
	}
}
