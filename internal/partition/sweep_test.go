package partition

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/shortest"
	"uagpnm/internal/testkit"
	"uagpnm/internal/updates"
)

// Twists a churn batch takes on top of its own updates (twistBatch),
// one bit each.
const (
	twistDuplicate    uint8 = 1 << iota // every edge update and node delete again, after the batch
	twistVoided                         // first the tail of the first edge delete goes, which voids that delete
	twistDeadEndpoint                   // last the head of the first edge insert goes, after the insert applied
)

// twistBatch is ds with the twists twist names. It inserts no node, so
// every id ds predicts stays right.
func twistBatch(ds []updates.Update, twist uint8) []updates.Update {
	out := slices.Clone(ds)
	if twist&twistDuplicate != 0 {
		for _, u := range ds {
			if u.Kind != updates.DataNodeInsert {
				out = append(out, u)
			}
		}
	}
	if i := slices.IndexFunc(ds, func(u updates.Update) bool { return u.Kind == updates.DataEdgeDelete }); twist&twistVoided != 0 && i >= 0 {
		out = append([]updates.Update{{Kind: updates.DataNodeDelete, Node: ds[i].From}}, out...)
	}
	if i := slices.IndexFunc(ds, func(u updates.Update) bool { return u.Kind == updates.DataEdgeInsert }); twist&twistDeadEndpoint != 0 && i >= 0 {
		out = append(out, updates.Update{Kind: updates.DataNodeDelete, Node: ds[i].To})
	}
	return out
}

// sweepRun is what checkSweeps saw: batches with a delete the pre-batch
// state held that did not apply, and with an applied edge insert whose
// head the batch deleted.
type sweepRun struct{ voided, deadEndpoint int }

// checkSweeps draws a Shape graph of nodes and edges from seed, builds a
// ball-plane engine at horizon over it, and applies four churn batches
// drawn from batchSeed, each twisted by twist, checking every one with
// checkSweepLogs.
func checkSweeps(t *testing.T, seed int64, nodes, edges, horizon int, twist uint8, batchSeed int64) sweepRun {
	t.Helper()
	g := testkit.Shape{Nodes: nodes, Edges: edges, Labels: 3, Homophily: 0.7}.Graph(seed)
	e := NewEngine(g, horizon)
	e.Build()
	rng := rand.New(rand.NewSource(batchSeed))
	var run sweepRun
	for batch := range 4 {
		founding := ""
		if batch == 3 {
			founding = "fresh"
		}
		ds, _ := churnBatch(rng, g, founding)
		pre := g.Clone()
		ds = twistBatch(ds, twist)
		applied := checkSweepLogs(t, e, g, ds)
		for i, u := range ds {
			switch {
			case u.Kind == updates.DataEdgeDelete && pre.HasEdge(u.From, u.To) && !applied[i]:
				run.voided++
			case u.Kind == updates.DataEdgeInsert && applied[i] && !g.Alive(u.To):
				run.deadEndpoint++
			}
		}
	}
	return run
}

// refHalves is update u's two halves by the hop reference (pre and post
// are the hop matrices of the graph before and after the batch, hops the
// cap): its sources at their depths into fwd, its targets into rev —
// an edge delete's and a node delete's read in pre when pre held the
// element (held), an applied edge insert's and node insert's in post.
// An edge (x,y) names every source within hops−1 of x at one more, and
// every target within hops−1 of y; a node delete every node within hops
// of it either way; a node insert itself. An endpoint is on its half
// even when dead.
func refHalves(u updates.Update, held, applied bool, pre, post testkit.HopMatrix, hops int, fwd *shortest.LogBuilder, rev *nodeset.Builder) {
	halves := func(d testkit.HopMatrix, tail, head uint32, step int) {
		fwd.Add(tail, step)
		for x, h := range d.Ball(tail, hops-step, 0, true) {
			fwd.Add(x, h+step)
		}
		rev.Add(head)
		for y := range d.Ball(head, hops-step, 0, false) {
			rev.Add(y)
		}
	}
	switch {
	case u.Kind == updates.DataEdgeDelete && held:
		halves(pre, u.From, u.To, 1)
	case u.Kind == updates.DataEdgeInsert && applied:
		halves(post, u.From, u.To, 1)
	case u.Kind == updates.DataNodeDelete && held:
		halves(pre, u.Node, u.Node, 0)
	case u.Kind == updates.DataNodeInsert && applied:
		fwd.Add(u.Node, 0)
		rev.Add(u.Node)
	}
}

// checkSweepLogs applies ds to e and g and fails unless the batch's two
// logs equal the union of its per-update halves by the hop reference
// (refHalves, Floyd–Warshall on the graph before and after the batch):
// the forward log member for member, each at the smallest depth a half
// gives it, and the reverse log as a set. The union is taken over every
// half — the sweeps' sources — and again over the applied updates'
// halves alone, which must agree: a delete that did not apply adds
// nothing. Each update's AffectedSets entry must be its own halves'
// union (nil when it has none), and which updates applied (applies) what
// the graph says replaying ds. It returns applies' answer.
func checkSweepLogs(t *testing.T, e *Engine, g *graph.Graph, ds []updates.Update) []bool {
	t.Helper()
	pre := g.Clone()
	applied := applies(ds, pre)
	log, rev, err := e.applyBatch(ds, g)
	if err != nil {
		t.Fatal(err)
	}
	ref := pre.Clone()
	for i, u := range ds {
		if _, ok := updates.ApplyGraph(u, ref); ok != applied[i] {
			t.Fatalf("update %d (%v) of %v: applies says %v, the graph %v", i, u, ds, applied[i], ok)
		}
	}
	preD, postD, hops := testkit.NewHopMatrix(pre), testkit.NewHopMatrix(g), e.capHops()
	held := func(u updates.Update) bool {
		return u.Kind == updates.DataEdgeDelete && pre.HasEdge(u.From, u.To) || u.Kind == updates.DataNodeDelete && pre.Alive(u.Node)
	}
	sets := AffectedSets(ds, pre, g, e.Horizon())
	for i, u := range ds {
		var fwd shortest.LogBuilder
		var bwd nodeset.Builder
		refHalves(u, held(u), applied[i], preD, postD, hops, &fwd, &bwd)
		want := fwd.Log().Nodes.Union(bwd.Set())
		if len(want) == 0 {
			want = nil
		}
		if !slices.Equal(sets[i], want) {
			t.Fatalf("horizon %d, update %d (%v) of %v: AffectedSets %v, reference %v", e.Horizon(), i, u, ds, sets[i], want)
		}
	}
	for _, appliedOnly := range []bool{false, true} {
		var fwd shortest.LogBuilder
		var bwd nodeset.Builder
		for i, u := range ds {
			if !appliedOnly || applied[i] {
				refHalves(u, held(u), applied[i], preD, postD, hops, &fwd, &bwd)
			}
		}
		want := fwd.Log()
		if !log.Nodes.Equal(want.Nodes) || !slices.Equal(log.Depth, want.Depth) {
			t.Fatalf("horizon %d, applied only %v, batch %v:\nforward log %v at %v\nunion       %v at %v",
				e.Horizon(), appliedOnly, ds, log.Nodes, log.Depth, want.Nodes, want.Depth)
		}
		if union := bwd.Set(); !rev.Equal(union) {
			t.Fatalf("horizon %d, applied only %v, batch %v:\nreverse log %v\nunion       %v", e.Horizon(), appliedOnly, ds, rev, union)
		}
	}
	return applied
}

// TestSweepLogsEqualPerUpdateUnion pins the sweeps against the halves
// they replace: on churn batches at horizons exact, 1, 2 and 3, plain
// and with every combination of three twists — duplicate updates, a
// delete an earlier update of the batch voided, an edge inserted at a
// node the same batch deletes — each batch's forward log (members and
// depths) and reverse log equal the union of its per-update halves, and
// every twist shows in some batch.
func TestSweepLogsEqualPerUpdateUnion(t *testing.T) {
	for horizon := range 4 {
		t.Run(fmt.Sprintf("h%d", horizon), func(t *testing.T) {
			var total sweepRun
			for twist := range uint8(8) {
				run := checkSweeps(t, int64(4700+horizon), 40, 90, horizon, twist, int64(47+twist))
				total.voided += run.voided
				total.deadEndpoint += run.deadEndpoint
			}
			if total.voided == 0 || total.deadEndpoint == 0 {
				t.Fatalf("vacuous: %d batches with a voided delete, %d with an insert at a deleted node", total.voided, total.deadEndpoint)
			}
		})
	}
}

// FuzzSweepLogs is TestSweepLogsEqualPerUpdateUnion's equality on a
// fuzzed Shape graph (up to 61 nodes), horizon (byte mod 4, 0 exact) and
// churn batch, twisted by the low three bits of twist. Its corpus is the
// test's cases; `go test -fuzz=FuzzSweepLogs ./internal/partition`
// explores further.
func FuzzSweepLogs(f *testing.F) {
	for horizon := range uint8(4) {
		for twist := range uint8(8) {
			f.Add(int64(4700+int(horizon)), uint8(38), uint8(90), horizon, twist, int64(47+int(twist)))
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, nodes, edges, horizon, twist uint8, batchSeed int64) {
		n := 2 + int(nodes)%60
		checkSweeps(t, seed, n, int(edges)%(3*n+1), int(horizon%4), twist&7, batchSeed)
	})
}
