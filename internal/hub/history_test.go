package hub

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/pattern"
	"uagpnm/internal/simulation"
	"uagpnm/internal/updates"
)

// referenceClone is the deep copy the history stored before deltas were
// packed: what an unpacked delta must equal.
func referenceClone(d Delta) Delta {
	nodes := make([]simulation.NodeDelta, len(d.Nodes))
	for i, nd := range d.Nodes {
		nodes[i] = simulation.NodeDelta{Node: nd.Node, Added: nd.Added.Clone(), Removed: nd.Removed.Clone()}
	}
	d.Nodes = nodes
	return d
}

func sameDelta(a, b Delta) bool {
	if a.Pattern != b.Pattern || a.Seq != b.Seq || len(a.Nodes) != len(b.Nodes) {
		return false
	}
	for i := range a.Nodes {
		x, y := a.Nodes[i], b.Nodes[i]
		if x.Node != y.Node || !x.Added.Equal(y.Added) || !x.Removed.Equal(y.Removed) {
			return false
		}
	}
	return true
}

func randomSet(rng *rand.Rand, max int) nodeset.Set {
	var b nodeset.Builder
	for i := rng.Intn(max + 1); i > 0; i-- {
		b.Add(uint32(rng.Intn(5000)))
	}
	return b.Set() // nil when empty, like simulation.Delta's sets
}

// TestPackedDeltaRoundTrip: unpack(pack(d)) equals a deep copy of d on
// random deltas — empty Added, empty Removed and single-node deltas
// included — and shares no storage with the packed form.
func TestPackedDeltaRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 500; trial++ {
		d := Delta{Pattern: PatternID(rng.Intn(100)), Seq: rng.Uint64()}
		for u := 0; u < 1+rng.Intn(6); u++ {
			nd := simulation.NodeDelta{Node: pattern.NodeID(u * 3)}
			switch rng.Intn(3) {
			case 0:
				nd.Added = randomSet(rng, 40)
			case 1:
				nd.Removed = randomSet(rng, 40)
			default:
				nd.Added, nd.Removed = randomSet(rng, 40), randomSet(rng, 40)
			}
			d.Nodes = append(d.Nodes, nd)
		}
		want := referenceClone(d)
		packed := packDelta(d)
		got := packed.unpack(d.Pattern)
		if !sameDelta(got, want) {
			t.Fatalf("trial %d: unpack(pack(d)) = %v, want %v", trial, got, want)
		}
		for _, nd := range got.Nodes { // scribble over everything handed out
			for i := range nd.Added {
				nd.Added[i] = 0xdead
			}
			for i := range nd.Removed {
				nd.Removed[i] = 0xdead
			}
		}
		if again := packed.unpack(d.Pattern); !sameDelta(again, want) {
			t.Fatalf("trial %d: a second unpack saw the first caller's writes", trial)
		}
	}
}

// TestDeltaHistoryStaysWithinBound appends three bounds' worth of
// deltas: the log keeps the newest History of them and its backing array
// never grows past History slots.
func TestDeltaHistoryStaysWithinBound(t *testing.T) {
	const history = 256
	r := &registration{}
	for seq := uint64(1); seq <= 3*history; seq++ {
		r.appendDelta(Delta{Seq: seq, Nodes: []simulation.NodeDelta{{Node: 0, Added: nodeset.New(uint32(seq))}}}, history)
		if cap(r.deltas) > history {
			t.Fatalf("after delta %d the log's capacity is %d, bound %d", seq, cap(r.deltas), history)
		}
	}
	if len(r.deltas) != history || cap(r.deltas) != history {
		t.Fatalf("len %d cap %d, want %d and %d", len(r.deltas), cap(r.deltas), history, history)
	}
	if r.deltas[0].seq != 2*history+1 || r.trimmedBelow != 2*history {
		t.Fatalf("oldest kept %d, trimmed below %d; want %d and %d", r.deltas[0].seq, r.trimmedBelow, 2*history+1, 2*history)
	}
}

// TestHubHistoryTrimAndSince drives a History of 3 past its bound and
// reads it from every kind of cursor: before the trim point (resync),
// at it, mid-history, and at the head (nothing yet: the poll waits).
func TestHubHistoryTrimAndSince(t *testing.T) {
	g := graph.New(nil)
	for i := 0; i < 8; i++ {
		g.AddNode("A")
	}
	g.AddNode("B") // 8
	p := pattern.New(g.Labels())
	u0 := p.AddNode("A")
	u1 := p.AddNode("B")
	p.AddEdge(u0, u1, 1)

	h := mustHub(t, g, Config{Horizon: 3, History: 3})
	id := mustRegister(t, h, p)
	var applied []Delta // what ApplyBatch handed out, by seq-1
	for i := uint32(0); i < 6; i++ {
		ds, _, err := h.ApplyBatch(Batch{D: []updates.Update{
			{Kind: updates.DataEdgeInsert, From: i, To: 8},
		}})
		if err != nil {
			t.Fatal(err)
		}
		if len(ds) != 1 || len(ds[0].Nodes) == 0 {
			t.Fatalf("batch %d changed nothing; the test exercises nothing", i)
		}
		applied = append(applied, referenceClone(ds[0]))
	}
	ctx := context.Background()
	for _, since := range []uint64{0, 1, 2} {
		if _, resync, err := h.WaitDeltas(ctx, id, since); err != nil || !resync {
			t.Fatalf("since=%d is behind the trim point: resync=%v err=%v, want resync", since, resync, err)
		}
	}
	for since := uint64(3); since < 6; since++ {
		ds, resync, err := h.WaitDeltas(ctx, id, since)
		if err != nil || resync || len(ds) != int(6-since) {
			t.Fatalf("since=%d: %d deltas resync=%v err=%v, want %d deltas", since, len(ds), resync, err, 6-since)
		}
		for j, d := range ds {
			if want := applied[since+uint64(j)]; !sameDelta(d, want) {
				t.Fatalf("since=%d: delta %d = %v, ApplyBatch returned %v", since, j, d, want)
			}
		}
	}
	waitCtx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if ds, resync, err := h.WaitDeltas(waitCtx, id, 6); !errors.Is(err, context.DeadlineExceeded) || resync || len(ds) != 0 {
		t.Fatalf("since=head: ds=%v resync=%v err=%v, want to wait out the deadline", ds, resync, err)
	}
}
