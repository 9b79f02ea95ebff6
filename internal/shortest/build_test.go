package shortest

import (
	"fmt"
	"math/rand"
	"testing"

	"uagpnm/internal/testkit"
)

// buildShape is one matrix backend Build fills: the exact dense global
// matrix, the capped hybrid one every intra-partition engine runs, and
// a partition-sized instance of the latter.
type buildShape struct {
	name         string
	nodes, edges int
	horizon      int
	opts         []Option
}

var buildShapes = []buildShape{
	{"exact-dense", 500, 2500, 0, nil},
	{"capped-sparse", 2000, 8000, 3, []Option{WithDenseThreshold(0), WithELLWidth(8)}},
	{"tiny", 40, 120, 3, []Option{WithDenseThreshold(0), WithELLWidth(8)}},
}

// rows lists every finite entry of m, row by row, as "r:c=d" strings.
func rows(m Matrix) []string {
	var out []string
	for r := uint32(0); int(r) < m.Rows(); r++ {
		m.Row(r, func(c uint32, d Dist) bool {
			out = append(out, fmt.Sprintf("%d:%d=%d", r, c, d))
			return true
		})
	}
	return out
}

// TestBuildWidthIndependent pins that Build's fan is invisible in its
// result: serial and 4-wide builds of the same graph — dead ids
// included — leave identical forward and reverse matrices, on the exact
// dense shape and the capped sparse ones (each at a quarter of its
// benchmark size). Under -race it also guards the
// matrix writes, which the pool's workers serialise.
func TestBuildWidthIndependent(t *testing.T) {
	for _, sh := range buildShapes {
		t.Run(sh.name, func(t *testing.T) {
			n := sh.nodes / 4
			g := testkit.Shape{Nodes: n, Edges: sh.edges / 4, Labels: 4}.Graph(5)
			dead := 0
			for id := uint32(3); int(id) < n; id += 7 {
				if _, ok := g.RemoveNode(id); ok {
					dead++
				}
			}
			if dead == 0 || g.NumIDs() == g.NumNodes() {
				t.Fatal("the instance must carry dead ids")
			}
			build := func(procs int) *Engine {
				testkit.WithProcs(t, procs)
				e := NewEngine(g, sh.horizon, sh.opts...)
				e.Build()
				return e
			}
			serial, wide := build(1), build(4)
			for _, m := range [][2]Matrix{{serial.fwd, wide.fwd}, {serial.rev, wide.rev}} {
				want, got := rows(m[0]), rows(m[1])
				if len(want) == 0 {
					t.Fatal("the serial build is empty")
				}
				if fmt.Sprint(want) != fmt.Sprint(got) {
					t.Fatalf("4-wide build differs from the serial one: %d vs %d entries", len(got), len(want))
				}
			}
			for id := uint32(0); int(id) < g.NumIDs(); id++ {
				if !g.Alive(id) && (wide.fwd.RowLen(id) != 0 || wide.rev.RowLen(id) != 0) {
					t.Fatalf("dead id %d has a row", id)
				}
			}
		})
	}
}

// BenchmarkBuild times one full SLen build (both directions) per shape:
// the global exact matrix of the baselines, the capped sparse shape of
// a large intra engine, and a 40-node partition's engine. Run it at
// -cpu 1,2 to read the pool's width.
func BenchmarkBuild(b *testing.B) {
	for _, sh := range buildShapes {
		b.Run(sh.name, func(b *testing.B) {
			g := testkit.UniformGraph(rand.New(rand.NewSource(1)), sh.nodes, sh.edges)
			b.ReportAllocs()
			for b.Loop() {
				NewEngine(g, sh.horizon, sh.opts...).Build()
			}
		})
	}
}
