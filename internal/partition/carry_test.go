package partition

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/obs"
	"uagpnm/internal/shortest"
	"uagpnm/internal/testkit"
	"uagpnm/internal/updates"
)

// rowShapes are the three shapes a ball row is served from: the ball
// plane, the in-process §V plane and two loopback workers.
var rowShapes = []struct {
	name string
	opts func(t *testing.T) []Option
}{
	{"ball-plane", func(*testing.T) []Option { return nil }},
	{"sectionV", func(*testing.T) []Option { return []Option{WithStitchedQueries()} }},
	{"fleet", func(t *testing.T) []Option { return []Option{WithShards(httptestFleet(t, 2)...)} }},
}

// rowModel is the engine's row tables as documented, one per direction
// (0 forward, 1 reverse) over source ids: the read epoch each held row
// was last read in. epoch counts the mutations so far.
type rowModel struct {
	held  [2]map[uint32]int
	epoch int
}

func newRowModel() rowModel {
	return rowModel{held: [2]map[uint32]int{{}, {}}}
}

// dropRows is the engine's: a mutation clears the forward rows of its
// forward log and the reverse rows of its reverse log, and starts a read
// epoch.
func (m *rowModel) dropRows(logs [2]nodeset.Set) {
	for d, log := range logs {
		for _, x := range log {
			delete(m.held[d], x)
		}
	}
	m.epoch++
}

// invalidate is the engine's: every row goes.
func (m *rowModel) invalidate() {
	m.held = [2]map[uint32]int{{}, {}}
	m.epoch++
}

// read reports whether reading x's row of direction d builds it and,
// when it does not, whether the row was carried over a mutation
// (carried) and over a whole epoch in which nothing read it (skipped).
func (m *rowModel) read(d int, x uint32) (built, carried, skipped bool) {
	last, ok := m.held[d][x]
	m.held[d][x] = m.epoch
	if !ok {
		return true, false, false
	}
	return false, last < m.epoch, last < m.epoch-1
}

// TestCarriedRowsAreExact drives random batches — every update kind, a
// founded partition every tenth batch, a node delete each — through the
// ball plane, the in-process §V plane and two loopback workers, at a
// capped and at the exact horizon, once as whole batches and once as
// one-update batches. After every mutation it reads a random half of the
// live rows, so rows skip epochs, and pins every row served against the
// Floyd–Warshall reference, and on the two §V shapes pins every row
// the shards serve against a fresh build from the data graph
// (CheckHeldShardRows). The build counter must
// equal what the model of one table per direction predicts: a read
// builds a row only when its source was named by that direction's log
// since its last read, is new, or was never read; every other read is a
// hit, however many epochs went by unread. A one-table model, which
// drops both rows of every node on either log, predicts more builds than
// the engine makes. A horizon widening mid-run drops everything, and every row
// read after it reaches the new horizon.
func TestCarriedRowsAreExact(t *testing.T) {
	for _, horizon := range []int{3, 0} {
		for _, setup := range rowShapes {
			for _, perUpdate := range []bool{false, true} {
				path, batches := "batch", 60
				if perUpdate {
					path, batches = "per-update", 8
				}
				t.Run(fmt.Sprintf("%s/h%d/%s", setup.name, horizon, path), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(2600 + horizon)))
					g := testkit.Shape{Nodes: 80, Edges: 110, Labels: 4, Homophily: 0.7}.Graph(rng.Int63())
					reg := obs.NewRegistry()
					e := NewEngine(g, horizon, append(setup.opts(t), WithMetrics(reg))...)
					e.Build()
					t.Cleanup(func() { _ = e.Close() })
					c := &carryCheck{t: t, e: e, g: g, reg: reg, rng: rng, horizon: horizon, m: newRowModel()}

					for batch := 0; batch < batches; batch++ {
						founding := ""
						if batch%10 == 5 {
							founding = fmt.Sprintf("new%d", batch)
						}
						ds, _ := churnBatch(rng, g, founding)
						if !perUpdate {
							_, logs, err := e.applyBatch(ds, g)
							if err != nil {
								t.Fatalf("batch %d: %v", batch, err)
							}
							c.m.dropRows(logs)
							c.readHalf(fmt.Sprintf("batch %d", batch))
						} else {
							for i, u := range ds {
								_, logs, err := e.applyBatch([]updates.Update{u}, g)
								if err != nil {
									t.Fatalf("batch %d update %d (%v): %v", batch, i, u, err)
								}
								c.m.dropRows(logs)
								c.readHalf(fmt.Sprintf("batch %d update %d (%v)", batch, i, u))
							}
						}
						if batch == batches/2 && horizon != 0 {
							c.horizon++
							e.EnsureHorizon(c.horizon)
							c.m.invalidate()
							if far := c.readHalf(fmt.Sprintf("batch %d widened", batch)); far != c.horizon {
								t.Fatalf("after widening to %d the farthest entry read is at %d", c.horizon, far)
							}
						}
					}
					if c.skipped == 0 {
						t.Fatal("no row was ever carried over an epoch that did not read it")
					}
					t.Logf("%d rows read, %d built, %d carried, %d of them over an unread epoch", c.reads, c.built, c.carried, c.skipped)
				})
			}
		}
	}
}

// carryCheck reads rows of one engine and keeps the model's expected
// counters beside the engine's.
type carryCheck struct {
	t       *testing.T
	e       *Engine
	g       *graph.Graph
	reg     *obs.Registry
	rng     *rand.Rand
	horizon int
	m       rowModel

	reads, built, carried, skipped uint64
}

// readHalf checks a §V engine's shard rows, reads both rows of a random
// half of the live nodes, pins each against the reference and the
// counters against the model, and returns the farthest distance any row
// held.
func (c *carryCheck) readHalf(step string) (far int) {
	t := c.t
	t.Helper()
	if c.e.sv() != nil {
		CheckHeldShardRows(t, c.e)
	}
	ref := testkit.NewHopMatrix(c.g)
	var live []uint32
	c.g.Nodes(func(id uint32) { live = append(live, id) })
	c.rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	for _, x := range live[:len(live)/2] {
		for d, reverse := range []bool{false, true} {
			built, carried, skipped := c.m.read(d, x)
			c.reads++
			if built {
				c.built++
			}
			if carried {
				c.carried++
			}
			if skipped {
				c.skipped++
			}
			ball := c.e.ForwardBall
			if reverse {
				ball = c.e.ReverseBall
			}
			got := map[uint32]int{}
			ball(x, testkit.Unreachable, func(v uint32, d shortest.Dist) bool { got[v] = int(d); return true })
			want := ref.Ball(x, testkit.Unreachable-1, c.horizon, reverse)
			if len(got) != len(want) {
				t.Fatalf("%s: row(%d, rev=%v) = %v, reference %v", step, x, reverse, got, want)
			}
			for v, d := range want {
				if got[v] != d {
					t.Fatalf("%s: row(%d, rev=%v)[%d] = %d, reference %d", step, x, reverse, v, got[v], d)
				}
				far = max(far, d)
			}
		}
	}
	if got := rowsBuilt(c.reg); got != c.built {
		t.Fatalf("%s: %d rows built, the model predicts %d", step, got, c.built)
	}
	return far
}

// rowsBuilt sums gpnm_ball_rows_built_total over both directions.
func rowsBuilt(reg *obs.Registry) uint64 {
	return reg.Counter("gpnm_ball_rows_built_total", "dir", "fwd").Value() +
		reg.Counter("gpnm_ball_rows_built_total", "dir", "rev").Value()
}

// TestInverseBatchRestoresRows is the row half of the inverse-batch law
// (internal/core pins the match half): on every row shape, at a capped
// and at the exact horizon, an edge batch followed by its inverse leaves
// every row read afterwards equal to the reference and to the row read
// before the batch. Every row is read between the two batches too, so
// the inverse finds the forward batch's rows held and must drop each one
// its change log names; a row the drop skips keeps serving the wrong
// side's distances.
func TestInverseBatchRestoresRows(t *testing.T) {
	for _, horizon := range []int{3, 0} {
		for _, setup := range rowShapes {
			t.Run(fmt.Sprintf("%s/h%d", setup.name, horizon), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(3500 + horizon)))
				g := testkit.Shape{Nodes: 40, Edges: 120, Labels: 4, Homophily: 0.75}.Graph(rng.Int63())
				e := NewEngine(g, horizon, setup.opts(t)...)
				e.Build()
				t.Cleanup(func() { _ = e.Close() })
				before := readAllRows(t, e, g, horizon, "before")
				moved := 0
				for i, b := range toggleBatches(rng, g, 6) {
					if _, _, err := e.ApplyDataBatch(b, g); err != nil {
						t.Fatalf("batch %d: %v", i, err)
					}
					rows := readAllRows(t, e, g, horizon, fmt.Sprintf("after batch %d", i))
					for k, row := range rows {
						if i%2 == 0 {
							if !sameRow(row, before[k]) {
								moved++
							}
						} else if !sameRow(row, before[k]) {
							t.Fatalf("after inverse batch %d: row %v = %v, before the batch %v", i, k, row, before[k])
						}
					}
				}
				if moved == 0 {
					t.Fatal("no batch moved a row: the law held vacuously")
				}
			})
		}
	}
}

// rowKey names one row: its source and direction.
type rowKey struct {
	x       uint32
	reverse bool
}

// readAllRows reads both full rows of every live node of e, pins each
// against g's reference and returns them.
func readAllRows(t *testing.T, e *Engine, g *graph.Graph, horizon int, step string) map[rowKey]map[uint32]int {
	t.Helper()
	ref := testkit.NewHopMatrix(g)
	rows := map[rowKey]map[uint32]int{}
	g.Nodes(func(x uint32) {
		for _, reverse := range []bool{false, true} {
			ball := e.ForwardBall
			if reverse {
				ball = e.ReverseBall
			}
			got := map[uint32]int{}
			ball(x, testkit.Unreachable, func(v uint32, d shortest.Dist) bool { got[v] = int(d); return true })
			if want := ref.Ball(x, testkit.Unreachable-1, horizon, reverse); !sameRow(got, want) {
				t.Fatalf("%s: row(%d, rev=%v) = %v, reference %v", step, x, reverse, got, want)
			}
			rows[rowKey{x, reverse}] = got
		}
	})
	return rows
}

// sameRow reports whether two rows hold the same nodes at the same
// distances.
func sameRow(a, b map[uint32]int) bool {
	if len(a) != len(b) {
		return false
	}
	for v, d := range a {
		if bd, ok := b[v]; !ok || bd != d {
			return false
		}
	}
	return true
}

// TestForkFirstInsertKeepsTables: a fork's first batch that inserts
// nodes — a forked session's next SQuery — neither regrows its graph's
// id-indexed slices nor its row tables; both leave a quarter of headroom.
func TestForkFirstInsertKeepsTables(t *testing.T) {
	rng := rand.New(rand.NewSource(3700))
	g := testkit.Shape{Nodes: 80, Edges: 200, Labels: 4, Homophily: 0.7}.Graph(rng.Int63())
	e := NewEngine(g, 3)
	e.Build()
	g2 := g.Clone()
	c := e.CloneFor(g2).(*Engine)
	tables := [2]*atomic.Pointer[ballRow]{&c.rows[0][0], &c.rows[1][0]}
	label := g.Labels().Name(g.NodeLabels(0)[0])
	var batch []updates.Update
	for i := 0; i < 8; i++ {
		id := uint32(g2.NumIDs() + i)
		batch = append(batch,
			updates.Update{Kind: updates.DataNodeInsert, Node: id, Labels: []string{label}},
			updates.Update{Kind: updates.DataEdgeInsert, From: id, To: 0})
	}
	if _, _, err := c.ApplyDataBatch(batch, g2); err != nil {
		t.Fatal(err)
	}
	if g2.NumIDs() != g.NumIDs()+8 {
		t.Fatal("the batch did not insert its nodes")
	}
	for d := range tables {
		if &c.rows[d][0] != tables[d] {
			t.Fatalf("the fork's first node-insert batch regrew its %s row table", []string{"fwd", "rev"}[d])
		}
	}
	assertMatchesReference(t, c, g2, 3, "fork after its insert batch")
}
