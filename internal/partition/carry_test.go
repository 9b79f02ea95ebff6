package partition

import (
	"fmt"
	"math/rand"
	"testing"

	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/obs"
	"uagpnm/internal/shortest"
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

// rowModel is the engine's row table as documented, over source ids:
// the read epoch each held row was last read in. epoch counts the
// mutations so far.
type rowModel struct {
	held  map[uint32]int
	epoch int
}

// dropRows is the engine's: a mutation clears the change log's rows and
// starts a read epoch.
func (m *rowModel) dropRows(changed nodeset.Set) {
	for _, x := range changed {
		delete(m.held, x)
	}
	m.epoch++
}

// invalidate is the engine's: every row goes.
func (m *rowModel) invalidate() {
	m.held = map[uint32]int{}
	m.epoch++
}

// read reports whether reading x's row builds it and, when it does not,
// whether the row was carried over a mutation (carried) and over a whole
// epoch in which nothing read it (skipped).
func (m *rowModel) read(x uint32) (built, carried, skipped bool) {
	last, ok := m.held[x]
	m.held[x] = m.epoch
	if !ok {
		return true, false, false
	}
	return false, last < m.epoch, last < m.epoch-1
}

// TestCarriedRowsAreExact drives random batches — every update kind, a
// founded partition every tenth batch, a node delete each — through the
// ball plane, the in-process §V plane and two loopback workers, at a
// capped and at the exact horizon, once through ApplyDataBatch and once
// through the per-update mutators. After every mutation it reads a
// random half of the live rows, so rows skip epochs, and pins every row
// served against the Floyd–Warshall reference. The build counter must
// equal what the one-table model predicts: a read builds a row only when
// its source was named by a change log since its last read, is new, or
// was never read; every other read is a hit, however many epochs went
// by unread. A horizon widening mid-run drops everything, and every row
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
					g := homophilousGraph(rng, 80, 110, 4, 0.7)
					reg := obs.NewRegistry()
					e := NewEngine(g, horizon, append(setup.opts(t), WithMetrics(reg))...)
					e.Build()
					t.Cleanup(func() { _ = e.Close() })
					c := &carryCheck{t: t, e: e, g: g, reg: reg, rng: rng, horizon: horizon, m: rowModel{held: map[uint32]int{}}}

					for batch := 0; batch < batches; batch++ {
						founding := ""
						if batch%10 == 5 {
							founding = fmt.Sprintf("new%d", batch)
						}
						ds, _ := churnBatch(rng, g, founding)
						if !perUpdate {
							_, log, err := e.ApplyDataBatch(ds, g)
							if err != nil {
								t.Fatalf("batch %d: %v", batch, err)
							}
							c.m.dropRows(log)
							c.readHalf(fmt.Sprintf("batch %d", batch))
						} else {
							for i, u := range ds {
								if aff := updates.ApplyData(u, g, e); aff != nil {
									c.m.dropRows(aff)
								}
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

// readHalf reads both rows of a random half of the live nodes, pins each
// against the reference and the counters against the model, and returns
// the farthest distance any row held.
func (c *carryCheck) readHalf(step string) (far int) {
	t := c.t
	t.Helper()
	ref := newHopMatrix(c.g)
	var live []uint32
	c.g.Nodes(func(id uint32) { live = append(live, id) })
	c.rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	for _, x := range live[:len(live)/2] {
		built, carried, skipped := c.m.read(x)
		c.reads += 2
		if built {
			c.built += 2
		}
		if carried {
			c.carried += 2
		}
		if skipped {
			c.skipped += 2
		}
		for _, reverse := range []bool{false, true} {
			ball := c.e.ForwardBall
			if reverse {
				ball = c.e.ReverseBall
			}
			got := map[uint32]int{}
			ball(x, unreachable, func(v uint32, d shortest.Dist) bool { got[v] = int(d); return true })
			want := ref.ball(x, unreachable-1, c.horizon, reverse)
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
