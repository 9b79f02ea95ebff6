package hub

import (
	"math/rand"
	"testing"

	"uagpnm/internal/graph"
	"uagpnm/internal/pattern"
	"uagpnm/internal/testkit"
	"uagpnm/internal/updates"
)

// BenchmarkHubBatch is the hub rung of the ladder: one ApplyBatch.
//
// fan: hub_fan's shape on the ball plane — a 2 000-node graph in 16
// labels, 96 standing queries of six nodes, each read off a walk in the
// graph so its match is total, and per batch one churn unit (a node
// deleted and re-inserted under a new id with its label and neighbours),
// one edge moved to another target of the same label and the held-back
// pattern edge of twelve queries toggled. The stream is periodic: after
// sixteen batches the graph is the one it started as up to the churned
// nodes' ids, and every query has its pattern back, so allocs/op does not
// drift with b.N. Each run builds its own hub and applies two periods
// before the timer starts, so a reading is of warm batches: each drops
// only the rows its change log names. A run starts from the same id
// space, which churn grows by one id a batch. woken/batch is
// BatchStats.Woken.
func BenchmarkHubBatch(b *testing.B) {
	b.Run("fan", benchHubFan)
}

// fanRig is the fan rung's hub and the mirror its batches are drawn on.
type fanRig struct {
	h      *Hub
	mirror *graph.Graph
	ids    []PatternID
	toggle []pattern.Edge // the held-back edge of each query
	on     []bool
	slots  []uint32 // churn slots' current ids
	moves  []edgeMove
	next   int // batches drawn so far
}

// edgeMove is an edge u→v that alternates with u→w, w labelled like v.
type edgeMove struct {
	u, v, w uint32
	moved   bool
}

const (
	fanPatterns = 96
	fanGroup    = 12 // queries whose held-back edge one batch toggles
	fanSlots    = 16 // churn slots, one per batch
	fanMoves    = 8  // edge moves, one per batch
	fanWarmup   = 2 * fanSlots
)

func benchHubFan(b *testing.B) {
	r := newFanRig(b)
	batches := make([]Batch, b.N)
	for i := range batches {
		batches[i] = r.draw()
	}
	b.ReportAllocs()
	b.ResetTimer()
	woken := 0
	for _, batch := range batches {
		_, st, err := r.h.ApplyBatch(b.Context(), batch)
		if err != nil {
			b.Fatal(err)
		}
		woken += st.Woken
	}
	b.ReportMetric(float64(woken)/float64(b.N), "woken/batch")
}

func newFanRig(b *testing.B) *fanRig {
	rng := rand.New(rand.NewSource(95))
	g := testkit.Shape{Nodes: 2000, Edges: 8000, Labels: 16, Homophily: 0.9}.Graph(95)
	r := &fanRig{mirror: g.Clone()}
	var err error
	if r.h, err = New(g, Config{Horizon: 3}); err != nil {
		b.Fatal(err)
	}
	for len(r.ids) < fanPatterns {
		p, toggle, ok := walkPattern(rng, r.mirror)
		if !ok {
			continue
		}
		id, err := r.h.Register(b.Context(), p)
		if err != nil {
			b.Fatal(err)
		}
		if m, _ := r.h.Match(id); !m.Total() {
			b.Fatal("a walk's pattern must match")
		}
		r.ids, r.toggle = append(r.ids, id), append(r.toggle, toggle)
	}
	r.on = make([]bool, fanPatterns)

	taken := map[uint32]bool{}
	for len(r.slots) < fanSlots {
		x := uint32(rng.Intn(g.NumIDs()))
		if deg := len(g.Out(x)) + len(g.In(x)); !taken[x] && deg > 0 && deg <= 6 {
			taken[x] = true
			r.slots = append(r.slots, x)
		}
	}
	for len(r.moves) < fanMoves {
		u := uint32(rng.Intn(g.NumIDs()))
		out := g.Out(u)
		if len(out) == 0 || taken[u] || taken[out[0]] {
			continue
		}
		v := out[0]
		for try := 0; try < 64; try++ {
			w := uint32(rng.Intn(g.NumIDs()))
			if w != u && w != v && !taken[w] && !g.HasEdge(u, w) && g.NodeLabels(w)[0] == g.NodeLabels(v)[0] {
				taken[u], taken[v], taken[w] = true, true, true
				r.moves = append(r.moves, edgeMove{u: u, v: v, w: w})
				break
			}
		}
	}
	for i := 0; i < fanWarmup; i++ {
		if _, _, err := r.h.ApplyBatch(b.Context(), r.draw()); err != nil {
			b.Fatal(err)
		}
	}
	return r
}

// walkPattern reads a six-node pattern off a walk in g that leaves its
// label whenever it can: the walk's edges at bound 1 and the chord
// 0→2 at bound 2, with the chord 1→3 at bound 2 held back to toggle.
func walkPattern(rng *rand.Rand, g *graph.Graph) (*pattern.Graph, pattern.Edge, bool) {
	walk := []uint32{uint32(rng.Intn(g.NumIDs()))}
	for len(walk) < 6 {
		out := g.Out(walk[len(walk)-1])
		if len(out) == 0 {
			return nil, pattern.Edge{}, false
		}
		at, next := walk[len(walk)-1], out[rng.Intn(len(out))]
		for _, v := range out {
			if g.NodeLabels(v)[0] != g.NodeLabels(at)[0] {
				next = v
			}
		}
		walk = append(walk, next)
	}
	p := pattern.New(g.Labels())
	ids := make([]pattern.NodeID, len(walk))
	for i, v := range walk {
		ids[i] = p.AddNode(g.Labels().Name(g.NodeLabels(v)[0]))
	}
	for i := 1; i < len(ids); i++ {
		p.AddEdge(ids[i-1], ids[i], 1)
	}
	p.AddEdge(ids[0], ids[2], 2)
	return p, pattern.Edge{From: ids[1], To: ids[3], B: 2}, true
}

// draw returns the stream's next batch and applies its data half to the
// mirror.
func (r *fanRig) draw() Batch {
	k := r.next
	r.next++
	var d []updates.Update
	apply := func(u updates.Update) {
		updates.ApplyGraph(u, r.mirror)
		d = append(d, u)
	}

	slot := &r.slots[k%fanSlots]
	x := *slot
	outs := append([]uint32(nil), r.mirror.Out(x)...)
	ins := append([]uint32(nil), r.mirror.In(x)...)
	label := r.mirror.Labels().Name(r.mirror.NodeLabels(x)[0])
	apply(updates.Update{Kind: updates.DataNodeDelete, Node: x})
	fresh := uint32(r.mirror.NumIDs())
	apply(updates.Update{Kind: updates.DataNodeInsert, Node: fresh, Labels: []string{label}})
	for _, y := range outs {
		apply(updates.Update{Kind: updates.DataEdgeInsert, From: fresh, To: y})
	}
	for _, z := range ins {
		apply(updates.Update{Kind: updates.DataEdgeInsert, From: z, To: fresh})
	}
	*slot = fresh

	m := &r.moves[k%fanMoves]
	from, to := m.v, m.w
	if m.moved {
		from, to = m.w, m.v
	}
	apply(updates.Update{Kind: updates.DataEdgeDelete, From: m.u, To: from})
	apply(updates.Update{Kind: updates.DataEdgeInsert, From: m.u, To: to})
	m.moved = !m.moved

	p := make(map[PatternID][]updates.Update, fanGroup)
	group := k % (fanPatterns / fanGroup)
	for i := group * fanGroup; i < (group+1)*fanGroup; i++ {
		e := r.toggle[i]
		if r.on[i] {
			p[r.ids[i]] = []updates.Update{{Kind: updates.PatternEdgeDelete, From: uint32(e.From), To: uint32(e.To)}}
		} else {
			p[r.ids[i]] = []updates.Update{{Kind: updates.PatternEdgeInsert, From: uint32(e.From), To: uint32(e.To), Bound: e.B}}
		}
		r.on[i] = !r.on[i]
	}
	return Batch{D: d, P: p}
}
