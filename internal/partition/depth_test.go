package partition

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/obs"
	"uagpnm/internal/shortest"
	"uagpnm/internal/testkit"
)

// depthModel is the row tables as documented, per direction and source:
// how many layers each held row has and whether it is open. A row is
// built on the first read that goes past its source — to the read's
// depth on the ball plane, at the full horizon on the §V plane — and
// deepened to a read's k when that read goes past its last layer while
// it is open.
type depthModel struct {
	rows [2]map[uint32]modelRow
	n    *rowCounts // shared with forks, as a fork shares its parent's registry
}

type rowCounts struct{ built, deepened uint64 }

type modelRow struct {
	layers int
	open   bool
}

func newDepthModel() *depthModel {
	return &depthModel{rows: [2]map[uint32]modelRow{{}, {}}, n: new(rowCounts)}
}

// fork is CloneFor's: the fork starts with every row, and counts on.
func (m *depthModel) fork() *depthModel {
	c := &depthModel{rows: [2]map[uint32]modelRow{{}, {}}, n: m.n}
	for d := range m.rows {
		for x, r := range m.rows[d] {
			c.rows[d][x] = r
		}
	}
	return c
}

// dropRows is the engine's: the forward log clears forward rows, the
// reverse log reverse rows.
func (m *depthModel) dropRows(logs [2]nodeset.Set) {
	for d, log := range logs {
		for _, x := range log {
			delete(m.rows[d], x)
		}
	}
}

// depthRead is one read of the random suite: its direction, source,
// radius, filter (nil for an unfiltered read) and the call on which its
// callback stops it (0: never).
type depthRead struct {
	reverse bool
	x       uint32
	k       int
	set     *nodeset.Bits
	stop    int
}

func (r depthRead) String() string {
	return fmt.Sprintf("ball(%d, k=%d, rev=%v, filtered=%v, stop=%d)", r.x, r.k, r.reverse, r.set != nil, r.stop)
}

// read advances the model over one read of engine e (ref is e's graph's
// reference).
func (m *depthModel) read(e *Engine, ref testkit.HopMatrix, r depthRead) {
	if r.k < 0 || !e.g.Alive(r.x) {
		return
	}
	member := func(v uint32) bool { return r.set == nil || r.set.Contains(v) }
	stopped := func(calls int) bool { return r.stop > 0 && calls >= r.stop }
	calls := 0
	if member(r.x) {
		calls++
	}
	if stopped(calls) || r.k == 0 {
		return
	}
	capHops := e.capHops()
	ball := ref.Ball(r.x, testkit.Unreachable-1, e.horizon, r.reverse)
	readTo := func(depth int) modelRow {
		if e.sv() != nil {
			depth = capHops
		}
		far := 0
		for _, d := range ball {
			if d <= depth {
				far = max(far, d)
			}
		}
		return modelRow{layers: far + 1, open: depth < capHops && far == depth}
	}
	dir := 0
	if r.reverse {
		dir = 1
	}
	row, held := m.rows[dir][r.x]
	if !held {
		row = readTo(min(r.k, capHops))
		m.n.built++
	}
	m.rows[dir][r.x] = row
	for v, d := range ball {
		if d >= 1 && d <= min(r.k, row.layers-1) && member(v) {
			calls++
		}
	}
	if stopped(calls) || !row.open || r.k < row.layers {
		return
	}
	m.rows[dir][r.x] = readTo(min(r.k, capHops))
	m.n.deepened++
}

// serve runs one read on o and pins what it served against the
// reference: every (id, distance) pair exact and within k, none twice,
// distances nondecreasing on an unfiltered read when nearestFirst, only
// members on a filtered read, and — unless the callback stopped it —
// every member of the ball. It reports with Errorf, so reading
// goroutines may call it.
func serve(t testing.TB, o shortest.Oracle, ref testkit.HopMatrix, horizon int, r depthRead, nearestFirst bool, step string) {
	t.Helper()
	got := map[uint32]int{}
	last, calls := 0, 0
	take := func(v uint32, d int) bool {
		calls++
		if _, dup := got[v]; dup {
			t.Errorf("%s: %v serves %d twice", step, r, v)
		}
		if nearestFirst && r.set == nil && d < last {
			t.Errorf("%s: %v serves distance %d after %d", step, r, d, last)
		}
		got[v], last = d, d
		return r.stop == 0 || calls < r.stop
	}
	fwd, rev := o.ForwardBall, o.ReverseBall
	fwdIn, revIn := o.ForwardBallIn, o.ReverseBallIn
	if r.reverse {
		fwd, fwdIn = rev, revIn
	}
	if r.set == nil {
		fwd(r.x, r.k, func(v uint32, d shortest.Dist) bool { return take(v, int(d)) })
	} else {
		fwdIn(r.x, r.k, r.set, func(v uint32) bool {
			if !r.set.Contains(v) {
				t.Errorf("%s: %v serves %d, not in the set", step, r, v)
			}
			return take(v, 0)
		})
	}
	want := ref.Ball(r.x, min(r.k, testkit.Unreachable-1), horizon, r.reverse)
	members := 0
	for v := range want {
		if r.set == nil || r.set.Contains(v) {
			members++
		}
	}
	for v, d := range got {
		if wd, ok := want[v]; !ok || (r.set == nil && wd != d) {
			t.Errorf("%s: %v serves (%d, %d), reference distance %d (within k: %v)", step, r, v, d, wd, ok)
			return
		}
	}
	if full := r.stop == 0 || members < r.stop; full && len(got) != members {
		t.Errorf("%s: %v serves %d of the ball's %d members: %v, reference %v", step, r, len(got), members, got, want)
	} else if !full && len(got) != r.stop {
		t.Errorf("%s: %v serves %d entries, its callback stops at %d", step, r, len(got), r.stop)
	}
}

// randomRead draws a read over g: mixed radii (past the horizon now and
// then), half of them filtered by a random set that may hold the source,
// dead ids and ids beyond the graph, and a third stopped early.
func randomRead(rng *rand.Rand, g *graph.Graph, horizon int, live []uint32) depthRead {
	maxK := horizon
	if horizon == 0 {
		maxK = 5
	}
	r := depthRead{reverse: rng.Intn(2) == 0, x: live[rng.Intn(len(live))], k: rng.Intn(maxK + 1)}
	if rng.Intn(8) == 0 {
		r.k = testkit.Unreachable
	}
	if rng.Intn(2) == 0 {
		r.set = nodeset.NewBits(rng.Intn(g.NumIDs() + 1))
		for i := 0; i < g.NumIDs()/3; i++ {
			r.set.Add(uint32(rng.Intn(g.NumIDs() + 8)))
		}
		if rng.Intn(2) == 0 {
			r.set.Add(r.x)
		}
	}
	if rng.Intn(3) == 0 {
		r.stop = 1 + rng.Intn(6)
	}
	return r
}

// TestShallowRowsAreExact drives random batches through the three row
// shapes, at a capped and the exact horizon, forks the engine halfway
// and drives both sides on. Before every batch it makes random reads —
// mixed radii, filtered and unfiltered, some stopped early — so rows are
// built shallow, deepened by later reads and carried into the fork
// while open; every pair served is pinned against the Floyd–Warshall
// reference of that side's graph, and the built and deepened counters
// against the model, exactly.
func TestShallowRowsAreExact(t *testing.T) {
	for _, horizon := range []int{3, 0} {
		for _, setup := range rowShapes {
			t.Run(fmt.Sprintf("%s/h%d", setup.name, horizon), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(3400 + horizon)))
				g := testkit.Shape{Nodes: 60, Edges: 100, Labels: 4, Homophily: 0.7}.Graph(rng.Int63())
				reg := obs.NewRegistry()
				e := NewEngine(g, horizon, append(setup.opts(t), WithMetrics(reg))...)
				e.Build()
				t.Cleanup(func() { _ = e.Close() })
				type side struct {
					name string
					e    *Engine
					g    *graph.Graph
					m    *depthModel
				}
				sides := []*side{{"parent", e, g, newDepthModel()}}
				for batch := 0; batch < 8; batch++ {
					if batch == 4 {
						g2 := g.Clone()
						sides = append(sides, &side{"fork", e.CloneFor(g2).(*Engine), g2, sides[0].m.fork()})
					}
					for _, s := range sides {
						ref := testkit.NewHopMatrix(s.g)
						var live []uint32
						s.g.Nodes(func(id uint32) { live = append(live, id) })
						for i := 0; i < 80; i++ {
							r := randomRead(rng, s.g, horizon, live)
							s.m.read(s.e, ref, r)
							if serve(t, s.e, ref, horizon, r, true, fmt.Sprintf("%s batch %d", s.name, batch)); t.Failed() {
								t.FailNow()
							}
						}
						ds, _ := churnBatch(rng, s.g, "")
						logs, err := s.e.applyLogs(ds, s.g)
						if err != nil {
							t.Fatal(err)
						}
						s.m.dropRows(logs)
					}
					counts := sides[0].m.n
					if got := rowsBuilt(reg); got != counts.built {
						t.Fatalf("batch %d: %d rows built, the model predicts %d", batch, got, counts.built)
					}
					if got := rowsDeepened(reg); got != counts.deepened {
						t.Fatalf("batch %d: %d rows deepened, the model predicts %d", batch, got, counts.deepened)
					}
				}
				if e.sv() == nil && sides[0].m.n.deepened == 0 {
					t.Fatal("no row was deepened")
				}
			})
		}
	}
}

// rowsDeepened sums gpnm_ball_rows_deepened_total over both directions.
func rowsDeepened(reg *obs.Registry) uint64 {
	return reg.Counter("gpnm_ball_rows_deepened_total", "dir", "fwd").Value() +
		reg.Counter("gpnm_ball_rows_deepened_total", "dir", "rev").Value()
}

// TestConcurrentMixedDepthReads has eight goroutines read one frozen
// ball-plane engine at mixed depths — so they build, deepen and publish
// the same rows at once — and pins every read against the reference;
// then a batch, and the same again. Run under -race.
func TestConcurrentMixedDepthReads(t *testing.T) {
	for _, horizon := range []int{3, 0} {
		t.Run(fmt.Sprintf("h%d", horizon), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(3500 + horizon)))
			g := testkit.Shape{Nodes: 50, Edges: 120, Labels: 4, Homophily: 0.7}.Graph(rng.Int63())
			e := NewEngine(g, horizon)
			e.Build()
			for round := 0; round < 2; round++ {
				ref := testkit.NewHopMatrix(g)
				var live []uint32
				g.Nodes(func(id uint32) { live = append(live, id) })
				var wg sync.WaitGroup
				for w := 0; w < 8; w++ {
					wg.Add(1)
					go func(seed int64) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(seed))
						for i := 0; i < 200; i++ {
							// A few hot sources, so the goroutines meet on rows.
							r := randomRead(rng, g, horizon, live[:8])
							serve(t, e, ref, horizon, r, true, fmt.Sprintf("round %d worker %d", round, seed))
						}
					}(int64(w))
				}
				wg.Wait()
				ds, _ := churnBatch(rng, g, "")
				if _, err := e.ApplyData(ds, g); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestBallInIsTheFilteredBall pins ForwardBallIn and ReverseBallIn on the
// global engine and on the three row shapes: for every id — dead ones
// included — at every radius, each serves the engine's own unfiltered
// ball filtered by a random set: one whose capacity stops short of the
// graph's ids, holding dead ids, an id past the graph and, for half the
// reads, the source. A read stopped early serves exactly as many members
// as its callback asked for.
func TestBallInIsTheFilteredBall(t *testing.T) {
	rng := rand.New(rand.NewSource(3600))
	g := testkit.Shape{Nodes: 40, Edges: 120, Labels: 4, Homophily: 0.7}.Graph(rng.Int63())
	for _, x := range []uint32{3, 17, 29} {
		g.RemoveNode(x)
	}
	ge := shortest.NewEngine(g, 3)
	ge.Build()
	oracles := []struct {
		name string
		o    shortest.Oracle
	}{{"global", ge}}
	for _, setup := range rowShapes {
		e := NewEngine(g, 3, setup.opts(t)...)
		e.Build()
		t.Cleanup(func() { _ = e.Close() })
		oracles = append(oracles, struct {
			name string
			o    shortest.Oracle
		}{setup.name, e})
	}
	n := uint32(g.NumIDs())
	ref := testkit.NewHopMatrix(g)
	for _, or := range oracles {
		for x := uint32(0); x < n; x++ {
			for k := 0; k <= 3; k++ {
				for _, reverse := range []bool{false, true} {
					set := nodeset.NewBits(rng.Intn(int(n)))
					for i := 0; i < int(n)/2; i++ {
						set.Add(uint32(rng.Intn(set.Capacity() + 1)))
					}
					set.Add(3) // dead
					set.Add(n + 5)
					if rng.Intn(2) == 0 {
						set.Add(x)
					}
					ball, ballIn := or.o.ForwardBall, or.o.ForwardBallIn
					if reverse {
						ball, ballIn = or.o.ReverseBall, or.o.ReverseBallIn
					}
					full, want := map[uint32]int{}, map[uint32]bool{}
					ball(x, k, func(v uint32, d shortest.Dist) bool {
						full[v] = int(d)
						if set.Contains(v) {
							want[v] = true
						}
						return true
					})
					if ref := ref.Ball(x, k, 3, reverse); !reflect.DeepEqual(full, ref) {
						t.Fatalf("%s: ball(%d, %d, rev=%v) = %v, reference %v", or.name, x, k, reverse, full, ref)
					}
					for _, stop := range []int{0, 1, 2} {
						got := map[uint32]bool{}
						ballIn(x, k, set, func(v uint32) bool {
							if !want[v] || got[v] {
								t.Fatalf("%s: ballIn(%d, %d, rev=%v) serves %d (in the filtered ball: %v, twice: %v)", or.name, x, k, reverse, v, want[v], got[v])
							}
							got[v] = true
							return stop == 0 || len(got) < stop
						})
						if wantLen := len(want); (stop == 0 || wantLen < stop) && len(got) != wantLen || stop > 0 && wantLen >= stop && len(got) != stop {
							t.Fatalf("%s: ballIn(%d, %d, rev=%v) stopped at %d serves %v, filtered ball %v", or.name, x, k, reverse, stop, got, want)
						}
					}
				}
			}
		}
	}
}
