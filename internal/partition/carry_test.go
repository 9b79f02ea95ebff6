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

// rowModel is the engine's two-generation row store as documented, over
// source ids: which rows the current tables hold and which the previous
// generation still carries.
type rowModel struct{ cur, prev map[uint32]bool }

// turn is turnRows: the current rows minus the change log become the
// previous generation.
func (m *rowModel) turn(changed nodeset.Set) {
	m.prev = m.cur
	for _, x := range changed {
		delete(m.prev, x)
	}
	m.cur = map[uint32]bool{}
}

// drop is invalidate: both generations go.
func (m *rowModel) drop() { m.cur, m.prev = map[uint32]bool{}, nil }

// read reports whether reading x's row builds it or adopts it from the
// previous generation (neither: it is current).
func (m *rowModel) read(x uint32) (built, adopted bool) {
	if m.cur[x] {
		return false, false
	}
	adopted = m.prev[x]
	m.cur[x] = true
	return !adopted, adopted
}

// TestCarriedRowsAreExact drives random batches — every update kind, a
// founded partition every tenth batch, a node delete each — through the
// ball plane, the in-process §V plane and two loopback workers, at a
// capped and at the exact horizon, once through ApplyDataBatch and once
// through the per-update mutators. After every mutation it reads a
// random half of the live rows, so rows skip epochs and live only in the
// previous generation meanwhile, and pins every row served against the
// Floyd–Warshall reference. The build and adoption counters must equal
// what the two-generation model predicts: a row is built only when its
// source is in a change log, is new, or went unread for an epoch, and
// every other read adopts the carried row. A horizon widening mid-run
// drops everything, and every row read after it reaches the new horizon.
func TestCarriedRowsAreExact(t *testing.T) {
	setups := []struct {
		name string
		opts func(t *testing.T) []Option
	}{
		{"ball-plane", func(*testing.T) []Option { return nil }},
		{"sectionV", func(*testing.T) []Option { return []Option{WithStitchedQueries()} }},
		{"fleet", func(t *testing.T) []Option { return []Option{WithShards(httptestFleet(t, 2)...)} }},
	}
	for _, horizon := range []int{3, 0} {
		for _, setup := range setups {
			for _, perUpdate := range []bool{false, true} {
				path, batches := "batch", 60
				if perUpdate {
					path, batches = "per-update", 8
				}
				t.Run(fmt.Sprintf("%s/h%d/%s", setup.name, horizon, path), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(2600 + horizon)))
					g := homophilousGraph(rng, 80, 110, 4, 0.7)
					reg := obs.NewRegistry()
					e := NewEngine(g, horizon, append(setup.opts(t), WithWorkers(2), WithMetrics(reg))...)
					e.Build()
					t.Cleanup(func() { _ = e.Close() })
					c := &carryCheck{t: t, e: e, g: g, reg: reg, rng: rng, horizon: horizon, m: rowModel{cur: map[uint32]bool{}}}

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
							c.m.turn(log)
							c.readHalf(fmt.Sprintf("batch %d", batch))
						} else {
							for i, u := range ds {
								if aff := updates.ApplyData(u, g, e); aff != nil {
									c.m.turn(aff)
								}
								c.readHalf(fmt.Sprintf("batch %d update %d (%v)", batch, i, u))
							}
						}
						if batch == batches/2 && horizon != 0 {
							c.horizon++
							e.EnsureHorizon(c.horizon)
							c.m.drop()
							if far := c.readHalf(fmt.Sprintf("batch %d widened", batch)); far != c.horizon {
								t.Fatalf("after widening to %d the farthest entry read is at %d", c.horizon, far)
							}
						}
					}
					if c.adopted == 0 {
						t.Fatal("no row was ever carried over a mutation")
					}
					t.Logf("%d rows read, %d built, %d adopted", c.reads, c.built, c.adopted)
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

	reads, built, adopted uint64
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
		built, adopted := c.m.read(x)
		c.reads += 2
		if built {
			c.built += 2
		}
		if adopted {
			c.adopted += 2
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
	count := func(name string) uint64 {
		return c.reg.Counter(name, "dir", "fwd").Value() + c.reg.Counter(name, "dir", "rev").Value()
	}
	if got := count("gpnm_ball_rows_built_total"); got != c.built {
		t.Fatalf("%s: %d rows built, the model predicts %d", step, got, c.built)
	}
	if got := count("gpnm_ball_rows_adopted_total"); got != c.adopted {
		t.Fatalf("%s: %d rows adopted, the model predicts %d", step, got, c.adopted)
	}
	return far
}
