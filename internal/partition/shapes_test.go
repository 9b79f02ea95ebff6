package partition

import (
	"fmt"
	"math/rand"
	"testing"

	"uagpnm/internal/graph"
	"uagpnm/internal/obs"
	"uagpnm/internal/pattern"
	"uagpnm/internal/shortest"
	"uagpnm/internal/testkit"
	"uagpnm/internal/updates"
)

// shapes names the two in-process engine shapes, for the tests that
// must hold on both.
func shapes() []engineConfig {
	return []engineConfig{
		{name: "ball-plane"},
		{name: "sectionV", opts: []Option{WithStitchedQueries()}},
	}
}

// assertMatchesReference pins every read of o — Dist, WithinHops and
// Reachable on all pairs of ids (dead ones included), both balls of
// every id at every radius up to the horizon (4 when exact) — against
// the Floyd–Warshall matrix of g.
func assertMatchesReference(t *testing.T, o shortest.Oracle, g *graph.Graph, horizon int, name string) {
	t.Helper()
	ref := testkit.NewHopMatrix(g)
	maxK := horizon
	if horizon == 0 {
		maxK = 4
	}
	n := uint32(g.NumIDs())
	for x := uint32(0); x < n; x++ {
		for y := uint32(0); y < n; y++ {
			want := ref.Dist(x, y, horizon)
			if got := o.Dist(x, y); (got == shortest.Inf) != (want == testkit.Unreachable) || (got != shortest.Inf && int(got) != want) {
				t.Fatalf("%s: Dist(%d,%d) = %v, reference %d", name, x, y, got, want)
			}
			if got := o.Reachable(x, y); got != (want != testkit.Unreachable) {
				t.Fatalf("%s: Reachable(%d,%d) = %v, reference distance %d", name, x, y, got, want)
			}
			for k := 0; k <= maxK; k++ {
				if got := o.WithinHops(x, y, k); got != (want <= k) {
					t.Fatalf("%s: WithinHops(%d,%d,%d) = %v, reference distance %d", name, x, y, k, got, want)
				}
			}
		}
		for _, reverse := range []bool{false, true} {
			ball := o.ForwardBall
			if reverse {
				ball = o.ReverseBall
			}
			for k := 0; k <= maxK; k++ {
				got := map[uint32]int{}
				ball(x, k, func(v uint32, d shortest.Dist) bool { got[v] = int(d); return true })
				want := ref.Ball(x, k, horizon, reverse)
				if len(got) != len(want) {
					t.Fatalf("%s: ball(%d, %d, rev=%v) = %v, reference %v", name, x, k, reverse, got, want)
				}
				for v, d := range want {
					if gd, ok := got[v]; !ok || gd != d {
						t.Fatalf("%s: ball(%d, %d, rev=%v)[%d] = %d (present %v), reference %d", name, x, k, reverse, v, gd, ok, d)
					}
				}
			}
		}
	}
}

// TestReferenceScript drives one random script — all four update kinds
// every batch, a partition emptied and one founded on the way, a widened
// horizon, a second Build — through the ball plane, the in-process §V
// plane and the global engine, each over its own copy of the graph, and
// after every step pins all three against the reference, which shares
// no code with any of them. Even batches go to ApplyDataBatch whole, odd
// ones as one-update batches.
func TestReferenceScript(t *testing.T) {
	for _, horizon := range []int{3, 0} {
		rng := rand.New(rand.NewSource(int64(2300 + horizon)))
		base := testkit.Shape{Nodes: 40, Edges: 140, Labels: 4, Homophily: 0.8}.Graph(rng.Int63())
		var z [2]uint32 // a partition one batch can empty
		for i := range z {
			z[i] = base.AddNode("Z")
			base.AddEdge(uint32(rng.Intn(40)), z[i])
			base.AddEdge(z[i], uint32(rng.Intn(40)))
		}
		base.AddEdge(z[0], z[1])

		type subject struct {
			name string
			g    *graph.Graph
			e    shortest.DistanceEngine
		}
		var subjects []subject
		for _, cfg := range shapes() {
			g := base.Clone()
			subjects = append(subjects, subject{cfg.name, g, NewEngine(g, horizon, append(cfg.opts, WithMetrics(obs.NewRegistry()))...)})
		}
		gg := base.Clone()
		subjects = append(subjects, subject{"global", gg, shortest.NewEngine(gg, horizon)})

		h := horizon
		check := func(step string) {
			t.Helper()
			for _, s := range subjects {
				if s.g.NumEdges() != base.NumEdges() || s.g.NumNodes() != base.NumNodes() {
					t.Fatalf("h=%d %s: %s's graph drifted from the script's", horizon, step, s.name)
				}
				assertMatchesReference(t, s.e, s.g, h, fmt.Sprintf("h=%d %s %s", horizon, step, s.name))
			}
		}
		apply := func(batch int, ds []updates.Update) {
			t.Helper()
			for _, u := range ds {
				updates.ApplyGraph(u, base)
			}
			step := len(ds)
			if batch%2 == 1 {
				step = 1
			}
			for _, s := range subjects {
				for i := 0; i < len(ds); i += step {
					if _, err := s.e.ApplyData(ds[i:i+step], s.g); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		for _, s := range subjects {
			s.e.Build()
		}
		check("built")
		p := pattern.New(base.Labels())
		for batch := 0; batch < 8; batch++ {
			ds := updates.Generate(updates.Balanced(rng.Int63(), 0, 8), base, p).D
			switch batch {
			case 3: // empty partition Z
				for _, id := range z {
					if base.Alive(id) {
						ds = append(ds, updates.Update{Kind: updates.DataNodeDelete, Node: id})
					}
				}
			case 5: // found a partition, wired to both sides
				w := base.Clone()
				for _, u := range ds {
					updates.ApplyGraph(u, w)
				}
				var live []uint32
				w.Nodes(func(id uint32) { live = append(live, id) })
				id := uint32(w.NumIDs())
				ds = append(ds,
					updates.Update{Kind: updates.DataNodeInsert, Node: id, Labels: []string{"fresh"}},
					updates.Update{Kind: updates.DataEdgeInsert, From: id, To: live[0]},
					updates.Update{Kind: updates.DataEdgeInsert, From: live[len(live)-1], To: id})
			}
			apply(batch, ds)
			check(fmt.Sprintf("batch %d", batch))
			switch {
			case batch == 4 && horizon != 0:
				h++
				for _, s := range subjects {
					s.e.EnsureHorizon(h)
				}
				check("widened")
			case batch == 6:
				for _, s := range subjects {
					s.e.Build()
				}
				check("rebuilt")
			}
		}
		if base.NumIDs() > 60 {
			t.Fatalf("the script grew the graph to %d ids; the reference is cubic", base.NumIDs())
		}
	}
}
