package shard_test

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"uagpnm/internal/core"
	"uagpnm/internal/graph"
	"uagpnm/internal/partition"
	"uagpnm/internal/shard"
	"uagpnm/internal/shortest"
	"uagpnm/internal/testkit"
	"uagpnm/internal/updates"
)

// rpcFleet spins up n in-process shard workers over real HTTP
// (httptest) and returns clients for them.
func rpcFleet(t testing.TB, n int) []shard.Shard {
	t.Helper()
	shs := make([]shard.Shard, n)
	for i := range shs {
		srv := shard.NewServer()
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		shs[i] = shard.Dial(ts.URL)
	}
	return shs
}

// shardedEngines builds, over clones of g, every engine variant the
// suite compares: the ball plane, the in-process §V plane (the monolith
// re-expressed through one shard.Local) and a 2-worker RPC fleet. Each
// comes with its own graph clone so batches replay independently.
type engineUnderTest struct {
	name string
	g    *graph.Graph
	eng  *partition.Engine
}

func shardedEngines(t testing.TB, g *graph.Graph, horizon int) []engineUnderTest {
	t.Helper()
	variants := []struct {
		name string
		opts func() []partition.Option
	}{
		{"ball", func() []partition.Option { return nil }},
		{"mono", func() []partition.Option { return []partition.Option{partition.WithStitchedQueries()} }},
		{"rpc2", func() []partition.Option { return []partition.Option{partition.WithShards(rpcFleet(t, 2)...)} }},
	}
	outs := make([]engineUnderTest, len(variants))
	for i, v := range variants {
		g2 := g.Clone()
		e := partition.NewEngine(g2, horizon, v.opts()...)
		e.Build()
		outs[i] = engineUnderTest{name: v.name, g: g2, eng: e}
	}
	return outs
}

// TestShardedEngineDifferential is the sharding ground-truth suite: a
// randomized update-batch sequence driven through (1) a Scratch
// session, (2) the ball-plane UA-GPNM engine, (3) the in-process §V
// monolith and (4) a 2-worker RPC shard fleet over real HTTP must
// leave identical SQuery results after every batch, at serial and wide
// pool widths. Run under -race (the tier-1 gate does) to also prove
// the read-epoch discipline across the shard seam.
func TestShardedEngineDifferential(t *testing.T) {
	trials, rounds := 3, 4
	if testing.Short() {
		trials, rounds = 1, 3
	}
	for _, procs := range []int{1, 4} {
		testkit.WithProcs(t, procs)
		for trial := 0; trial < trials; trial++ {
			seed := int64(61000 + trial)
			g, p := testkit.Shape{Nodes: 40, Edges: 110, Labels: 5, PatNodes: 4, PatEdges: 5}.Instance(seed)

			ref := core.NewSession(g.Clone(), p.Clone(),
				core.Config{Method: core.Scratch, Horizon: 3})
			euts := shardedEngines(t, g, 3)
			sessions := make([]*core.Session, len(euts))
			for i, eut := range euts {
				sessions[i] = core.NewSessionWith(eut.g, p.Clone(), eut.eng,
					core.Config{Method: core.UAGPNM, Horizon: 3})
				if !sessions[i].Match.Equal(ref.Match) {
					t.Fatalf("procs=%d trial=%d %s: IQuery diverges from Scratch", procs, trial, eut.name)
				}
			}

			for round := 0; round < rounds; round++ {
				batch := updates.Generate(
					updates.Balanced(seed*13+int64(round), 2, 12), ref.G, ref.P)
				want := ref.SQuery(batch)
				for i, eut := range euts {
					got := sessions[i].SQuery(batch)
					if !got.Equal(want) {
						t.Fatalf("procs=%d trial=%d round=%d %s: diverges from Scratch\nbatch D=%v P=%v",
							procs, trial, round, eut.name, batch.D, batch.P)
					}
				}
			}
		}
	}
}

// TestShardedOracleAgreement spot-checks the distance oracle itself —
// Dist, ForwardBall, ReverseBall — across the three shard layouts after
// a mutation sequence, pinning that the seam preserves the substrate
// (not only the match results derived from it).
func TestShardedOracleAgreement(t *testing.T) {
	seed := int64(4711)
	g := testkit.Shape{Nodes: 35, Edges: 100, Labels: 5}.Graph(seed)
	euts := shardedEngines(t, g, 3)
	rng := rand.New(rand.NewSource(seed))

	applyEverywhere := func(u updates.Update) {
		for _, eut := range euts {
			if _, err := eut.eng.ApplyData([]updates.Update{u}, eut.g); err != nil {
				t.Fatalf("%s: %v", eut.name, err)
			}
		}
	}
	var live []uint32
	g.Nodes(func(id uint32) { live = append(live, id) })
	for step := 0; step < 25; step++ {
		u := live[rng.Intn(len(live))]
		v := live[rng.Intn(len(live))]
		if u != v && !euts[0].g.HasEdge(u, v) {
			applyEverywhere(updates.Update{Kind: updates.DataEdgeInsert, From: u, To: v})
		}
		if out := euts[0].g.Out(u); len(out) > 0 && step%3 == 0 {
			applyEverywhere(updates.Update{Kind: updates.DataEdgeDelete, From: u, To: out[rng.Intn(len(out))]})
		}
	}

	n := euts[0].g.NumIDs()
	for x := uint32(0); int(x) < n; x++ {
		for y := uint32(0); int(y) < n; y++ {
			d0 := euts[0].eng.Dist(x, y)
			for _, eut := range euts[1:] {
				if d := eut.eng.Dist(x, y); d != d0 {
					t.Fatalf("%s: Dist(%d,%d) = %v, %s says %v", eut.name, x, y, d, euts[0].name, d0)
				}
			}
		}
		row0 := ballRow(euts[0].eng, x)
		for _, eut := range euts[1:] {
			if row := ballRow(eut.eng, x); row != row0 {
				t.Fatalf("%s: ball rows of %d diverge:\n  %s: %s\n  %s: %s",
					eut.name, x, euts[0].name, row0, eut.name, row)
			}
		}
	}
}

// ballRow renders both balls of x as an (id → distance) listing sorted
// by id: the order an engine visits a ball in is its own business.
func ballRow(e *partition.Engine, x uint32) string {
	var entries []string
	e.ForwardBall(x, 3, func(v uint32, d shortest.Dist) bool {
		entries = append(entries, fmt.Sprintf("f%06d:%d", v, d))
		return true
	})
	e.ReverseBall(x, 3, func(v uint32, d shortest.Dist) bool {
		entries = append(entries, fmt.Sprintf("r%06d:%d", v, d))
		return true
	})
	sort.Strings(entries)
	return strings.Join(entries, " ")
}

// TestRPCShardCloneFor pins the documented CloneFor fallback: cloning a
// remote-shard engine yields an in-process ball plane with identical
// distances (Session.Fork on a sharded session depends on this).
func TestRPCShardCloneFor(t *testing.T) {
	g := testkit.Shape{Nodes: 30, Edges: 80, Labels: 5}.Graph(99)
	e := partition.NewEngine(g, 3, partition.WithShards(rpcFleet(t, 2)...))
	e.Build()
	g2 := g.Clone()
	c := e.CloneFor(g2).(*partition.Engine)
	if c.Remote() {
		t.Fatal("clone of a remote-shard engine should be in-process")
	}
	n := g.NumIDs()
	for x := uint32(0); int(x) < n; x++ {
		for y := uint32(0); int(y) < n; y++ {
			if a, b := e.Dist(x, y), c.Dist(x, y); a != b {
				t.Fatalf("clone Dist(%d,%d) = %v, original %v", x, y, b, a)
			}
		}
	}
	// And the clone maintains independently.
	var u, v uint32
	found := false
	g2.Nodes(func(a uint32) {
		if found {
			return
		}
		g2.Nodes(func(b uint32) {
			if !found && a != b && !g2.HasEdge(a, b) {
				u, v, found = a, b, true
			}
		})
	})
	if !found {
		t.Skip("graph saturated")
	}
	if _, err := c.ApplyData([]updates.Update{{Kind: updates.DataEdgeInsert, From: u, To: v}}, g2); err != nil {
		t.Fatal(err)
	}
	if got := c.Dist(u, v); got != 1 {
		t.Fatalf("clone Dist(%d,%d) after insert = %v, want 1", u, v, got)
	}
}
