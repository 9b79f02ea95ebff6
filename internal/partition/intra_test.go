package partition

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"uagpnm/internal/graph"
	"uagpnm/internal/obs"
	"uagpnm/internal/pattern"
	"uagpnm/internal/shard"
	"uagpnm/internal/shortest"
	"uagpnm/internal/updates"
)

// The per-partition intra engines of an in-process fleet are built by
// their first reader, not by Build, and maintained only from then on.
// These tests leave them unread across a script of mutations and pin the
// first read — and everything after it — against engines that were
// built up front.

func intraBuilds(reg *obs.Registry) uint64 {
	return reg.Counter("gpnm_intra_builds_total").Value()
}

// intraScript is unreadScript followed by what only the intra engines
// would notice: k rounds that each toggle one intra edge through the
// single-op API, the middle one also inserting a node under a label the
// graph has never seen (a partition created mid-script), wired to both
// sides, and — in a rebuild script — calling Build again.
func intraScript(t *testing.T, rng *rand.Rand, e *Engine, g *graph.Graph, z [2]uint32, k, perBatch int, widen, rebuild bool) {
	t.Helper()
	unreadScript(t, rng, e, g, z, k, perBatch, widen)
	for round := 0; round < k; round++ {
		var live []uint32
		g.Nodes(func(id uint32) { live = append(live, id) })
		for tries := 0; tries < 200; tries++ {
			x, y := live[rng.Intn(len(live))], live[rng.Intn(len(live))]
			if x == y || e.part.partIndex(x) != e.part.partIndex(y) {
				continue
			}
			if g.HasEdge(x, y) {
				g.RemoveEdge(x, y)
				e.DeleteEdge(x, y)
			} else if g.AddEdge(x, y) {
				e.InsertEdge(x, y)
			}
			break
		}
		if round != k/2 {
			continue
		}
		id := uint32(g.NumIDs())
		parts := len(e.part.parts)
		b := []updates.Update{
			{Kind: updates.DataNodeInsert, Node: id, Labels: []string{fmt.Sprintf("fresh%d", id)}},
			{Kind: updates.DataEdgeInsert, From: id, To: live[0]},
			{Kind: updates.DataEdgeInsert, From: live[len(live)-1], To: id},
		}
		if _, _, err := e.ApplyDataBatch(b, g); err != nil {
			t.Fatal(err)
		}
		if len(e.part.parts) != parts+1 {
			t.Fatalf("a node under a new label made %d partitions of %d", len(e.part.parts), parts)
		}
		if rebuild {
			e.Build()
		}
	}
}

// assertIntraExact compares e — all-pairs Dist, WithinHops, Reachable and
// both ball directions — with a freshly built stitched engine and the
// global engine over the same graph.
func assertIntraExact(t *testing.T, e *Engine, g *graph.Graph, name string) {
	t.Helper()
	fresh := NewEngine(g.Clone(), e.Horizon(), WithStitchedQueries(), WithMetrics(obs.NewRegistry()))
	fresh.Build()
	assertEnginesAgree(t, fresh, e, g, name+" vs fresh stitched")
	assertOracleAgrees(t, e, g, e.Horizon(), -1)
	k := e.capHops()
	if k > 3 {
		k = 3
	}
	g.Nodes(func(x uint32) {
		g.Nodes(func(y uint32) {
			d := fresh.Dist(x, y)
			if got, want := e.WithinHops(x, y, k), d != shortest.Inf && int(d) <= k; got != want {
				t.Fatalf("%s: WithinHops(%d,%d,%d) = %v, fresh distance %v", name, x, y, k, got, d)
			}
			if got, want := e.Reachable(x, y), d != shortest.Inf; got != want {
				t.Fatalf("%s: Reachable(%d,%d) = %v, fresh distance %v", name, x, y, got, d)
			}
		})
	})
}

func TestIntraFirstReadMatchesFresh(t *testing.T) {
	for _, k := range []int{1, 2, 5, 20} {
		for _, horizon := range []int{0, 3} {
			name := fmt.Sprintf("k=%d h=%d", k, horizon)
			rng := rand.New(rand.NewSource(int64(300 + k)))
			g, z := deferredGraph(rng)
			reg := obs.NewRegistry()
			e := NewEngine(g, horizon, WithMetrics(reg))
			e.Build()
			intraScript(t, rng, e, g, z, k, 4, horizon != 0, k >= 5)
			// Ball reads are BFS rows: they are not readers of the engines.
			g.Nodes(func(x uint32) {
				e.ForwardBall(x, 2, func(uint32, shortest.Dist) bool { return true })
				e.ReverseBall(x, 2, func(uint32, shortest.Dist) bool { return true })
			})
			if n := intraBuilds(reg); n != 0 || e.intraReady.Load() {
				t.Fatalf("%s: %d materialisations before the first Dist (ready=%v)", name, n, e.intraReady.Load())
			}
			if b, s := overlaySyncs(reg); b+s != 0 || !e.ov.full {
				t.Fatalf("%s: overlay synced %d+%d times over absent engines (full=%v)", name, b, s, e.ov.full)
			}
			for _, sh := range e.shards {
				for p := range e.part.parts {
					if sh.(*shard.Local).Owns(p) {
						t.Fatalf("%s: an unread engine holds partition %d's intra engine", name, p)
					}
				}
			}
			assertIntraExact(t, e, g, name+" first read")
			if n := intraBuilds(reg); n != 1 {
				t.Fatalf("%s: the first read cost %d materialisations, want 1", name, n)
			}
			// From here on the engines are maintained op by op.
			intraScript(t, rng, e, g, z, 3, 4, false, false)
			assertIntraExact(t, e, g, name+" incremental")
			if n := intraBuilds(reg); n != 1 {
				t.Fatalf("%s: %d materialisations after further batches, want still 1", name, n)
			}
			// A second Build starts over: absent until the next read.
			e.Build()
			if e.intraReady.Load() || !e.ov.full {
				t.Fatalf("%s: Build left ready=%v overlay full=%v", name, e.intraReady.Load(), e.ov.full)
			}
			intraScript(t, rng, e, g, z, 1, 4, false, false)
			assertIntraExact(t, e, g, name+" rebuilt")
			if n := intraBuilds(reg); n != 2 {
				t.Fatalf("%s: %d materialisations after a second Build and its first read, want 2", name, n)
			}
		}
	}
}

// TestIntraCloneAbsentAndPresent forks an engine before and after its
// first read; parent and clone then diverge and each must stay equal to
// a fresh engine over its own graph.
func TestIntraCloneAbsentAndPresent(t *testing.T) {
	for _, present := range []bool{false, true} {
		name := fmt.Sprintf("present=%v", present)
		rng := rand.New(rand.NewSource(41))
		g, z := deferredGraph(rng)
		reg := obs.NewRegistry()
		e := NewEngine(g, 3, WithMetrics(reg))
		e.Build()
		intraScript(t, rng, e, g, z, 2, 3, false, false)
		if present {
			e.Dist(0, 1)
		}
		before := intraBuilds(reg)
		g2 := g.Clone()
		c := e.CloneFor(g2).(*Engine) // shares e's registry
		if c.intraReady.Load() != present || c.stitched || (!present && !c.ov.full) {
			t.Fatalf("%s: clone ready=%v stitched=%v overlay full=%v", name, c.intraReady.Load(), c.stitched, c.ov.full)
		}
		if n := intraBuilds(reg); n != before {
			t.Fatalf("%s: CloneFor materialised (%d → %d)", name, before, n)
		}
		intraScript(t, rand.New(rand.NewSource(42)), e, g, z, 2, 3, false, false)
		intraScript(t, rand.New(rand.NewSource(43)), c, g2, z, 3, 2, false, false)
		assertIntraExact(t, c, g2, name+" clone")
		assertIntraExact(t, e, g, name+" parent")
		want := before
		if !present {
			want += 2 // one first read each
		}
		if n := intraBuilds(reg); n != want {
			t.Fatalf("%s: %d materialisations across parent and clone, want %d", name, n, want)
		}
	}
}

// TestConcurrentFirstReadMaterialisesOnce: whichever reader of a read
// epoch gets to the absent engines first builds them for all. Run under
// -race.
func TestConcurrentFirstReadMaterialisesOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	g, z := deferredGraph(rng)
	reg := obs.NewRegistry()
	e := NewEngine(g, 3, WithMetrics(reg))
	e.Build()
	for round := 0; round < 2; round++ {
		intraScript(t, rng, e, g, z, 1, 3, false, false)
		fresh := NewEngine(g.Clone(), 3, WithStitchedQueries(), WithMetrics(obs.NewRegistry()))
		fresh.Build()
		n := uint32(g.NumIDs())
		const readers = 8
		var wg sync.WaitGroup
		start := make(chan struct{})
		for r := uint32(0); r < readers; r++ {
			wg.Add(1)
			go func(r uint32) {
				defer wg.Done()
				<-start
				for x := r; x < n; x += readers {
					for y := uint32(0); y < n; y++ {
						d := fresh.Dist(x, y)
						if got := e.Dist(x, y); got != d {
							t.Errorf("round %d: Dist(%d,%d) = %v, fresh %v", round, x, y, got, d)
							return
						}
						if got, want := e.WithinHops(x, y, 2), d != shortest.Inf && d <= 2; got != want {
							t.Errorf("round %d: WithinHops(%d,%d,2) = %v, fresh distance %v", round, x, y, got, d)
							return
						}
					}
				}
			}(r)
		}
		close(start)
		wg.Wait()
		if got := intraBuilds(reg); got != 1 {
			t.Fatalf("round %d: %d readers cost %d materialisations in all, want exactly one", round, readers, got)
		}
	}
}

// TestBatchedAndBallReadEngineNeverMaterialises pins the point of the
// gate: batches and ball reads are not readers of the §V structures, so
// an in-process engine driven by nothing else builds neither half of
// them — while every engine that stitches its rows has both when Build
// returns.
func TestBatchedAndBallReadEngineNeverMaterialises(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := homophilousGraph(rng, 120, 500, 6, 0.85)
	reg := obs.NewRegistry()
	e := NewEngine(g, 3, WithMetrics(reg))
	e.Build()
	p := pattern.New(g.Labels())
	for batch := 0; batch < 50; batch++ {
		b := updates.Generate(updates.Balanced(rng.Int63(), 0, 12), g, p)
		_, changeLog, err := e.ApplyDataBatch(b.D, g)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range changeLog {
			e.ForwardBall(x, 3, func(uint32, shortest.Dist) bool { return true })
			e.ReverseBall(x, 3, func(uint32, shortest.Dist) bool { return true })
		}
		if batch == 25 {
			e.EnsureHorizon(4)
			e.CloneFor(g.Clone())
		}
	}
	b, s := overlaySyncs(reg)
	if n := intraBuilds(reg); n != 0 || b+s != 0 {
		t.Fatalf("50 batches and their ball reads cost %d materialisations and %d+%d overlay syncs, want none", n, b, s)
	}
	assertOracleAgrees(t, e, g, 4, -1) // and the first Dist still finds everything

	fleet := httptestFleet(t, 2)
	for name, opts := range map[string][]Option{
		"stitched":        {WithStitchedQueries()},
		"local3 stitched": {WithLocalShards(3), WithStitchedQueries()},
		"remote":          {WithShards(fleet...)},
	} {
		reg := obs.NewRegistry()
		se := NewEngine(g.Clone(), 3, append(opts, WithMetrics(reg))...)
		se.Build()
		if n, built := intraBuilds(reg), reg.Counter("gpnm_overlay_sync_total", "mode", "build").Value(); n != 1 || built != 1 {
			t.Errorf("%s: Build left %d materialisations and %d overlay builds, want 1 and 1", name, n, built)
		}
		if reg.HistogramCounts("gpnm_batch_phase_seconds")["intra_build"] != 1 {
			t.Errorf("%s: Build did not record one intra_build span", name)
		}
		if err := se.Close(); err != nil {
			t.Error(err)
		}
	}
}
