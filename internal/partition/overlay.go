package partition

import (
	"sync"

	"uagpnm/internal/nodeset"
	"uagpnm/internal/shortest"
	"uagpnm/internal/workpool"
)

// overlay is the weighted bridge graph gluing the partitions of a §V
// engine together. Its nodes are the bridge nodes (exits and entries, by
// global id); its edges are
//
//   - every cross-partition data edge (weight 1), and
//   - entry → exit hops within one partition (weight = intra-partition
//     shortest path length),
//
// and it materialises capped all-pairs distances between bridge nodes in
// fwd (with a transposed mirror in rev).
//
// The matrices are always current between mutations: Build and
// EnsureHorizon build them, and every other mutation reconciles them
// with the anchors it dirtied before it returns — a scoped recompute, or
// a build from scratch when the anchors outgrow rebuildFraction of the
// bridge nodes. Readers (stitched rows) take no lock and check nothing.
//
// The weighted adjacency is materialised once per build or recompute
// (adjacency) and walked by every Dijkstra of that pass; it is a local
// of the pass, so nothing of it survives into the next mutation and no
// invalidation rule is needed.
//
// Concurrency: Dijkstra runs are read-only over the adjacency and carry
// their own scratch (pooled), so build and recompute fan the per-source
// runs across a bounded worker pool and install the finished rows from
// a single goroutine — fwd and rev are only ever mutated serially, by
// the engine's single mutation writer.
//
// Intra-partition distances reach the overlay through the engine's
// shard table (sectionV.intraBall), so the adjacency is the same whether the
// per-partition engines are in-process or remote.
type overlay struct {
	sv       *sectionV
	p        *Partitioning
	fwd, rev shortest.Matrix

	// scratch pools per-worker Dijkstra state.
	scratch sync.Pool

	// row snapshot buffers for installRow (serial use only).
	oldCols []uint32
	oldVals []shortest.Dist
}

func newOverlay(sv *sectionV) *overlay {
	o := &overlay{sv: sv, p: sv.part}
	o.scratch.New = func() interface{} { return new(dijkstraScratch) }
	return o
}

// rebuildFraction is the share of the bridge roles beyond which a
// mutation's dirty anchors are reconciled by a build from scratch. A
// scoped recompute runs one reverse Dijkstra per anchor plus a forward
// one per source that reaches an anchor, against one forward Dijkstra
// per bridge node for the build, both over one adjacency whose fill
// costs the same either way. BenchmarkOverlaySync has the scoped
// recompute ahead below a third of the roles (by a third at 5–8 %, by
// a tenth to a fifth at 25–31 %), the two within a tenth of each other
// from a third to two fifths on fan2000 (in-process and fleet) and up
// to a half on sync4000, and the build ahead beyond (by 2–28 % at
// 66–85 %).
const rebuildFraction = 0.35

// reconcile brings fwd and rev up to date after a mutation dirtied the
// given anchors (new/removed bridge nodes, bridge nodes of partitions
// whose intra distances changed, endpoints of added/removed cross
// edges). Partition subgraphs and counters must already reflect the new
// state.
func (o *overlay) reconcile(dirty nodeset.Set) {
	switch {
	case len(dirty) == 0:
	case float64(len(dirty)) > rebuildFraction*float64(o.bridges()):
		o.build()
	default:
		o.recompute(dirty)
		o.sv.metrics.Counter("gpnm_overlay_sync_total", "mode", "scoped").Inc()
	}
}

// bridges counts the exit and entry roles currently held (a node that is
// both counts twice) — the size reconcile weighs dirty anchors against.
func (o *overlay) bridges() int {
	n := 0
	for _, pt := range o.p.parts {
		n += len(pt.exits) + len(pt.entries)
	}
	return n
}

// dijkstraScratch is the epoch-stamped working state of one capped
// Dijkstra run. Each worker borrows one from the overlay's pool, so runs
// on different goroutines never share mutable state.
type dijkstraScratch struct {
	heap    dijkstraHeap
	dist    []shortest.Dist
	stamp   []uint32
	epoch   uint32
	touched []uint32
	distRow []shortest.Dist
}

// nextEpoch advances a stamped scratch to a fresh epoch. A never-stamped
// id holds 0, so when the epoch wraps to 0 the stamps are cleared and
// counting restarts at 1 — otherwise every such id would read as
// current.
func nextEpoch(epoch *uint32, stamp []uint32) {
	*epoch++
	if *epoch == 0 {
		clear(stamp)
		*epoch = 1
	}
}

func (sc *dijkstraScratch) setDist(id uint32, d shortest.Dist) {
	if int(id) >= len(sc.stamp) {
		grow := int(id) + 1 - len(sc.stamp)
		sc.dist = append(sc.dist, make([]shortest.Dist, grow)...)
		sc.stamp = append(sc.stamp, make([]uint32, grow)...)
	}
	if sc.stamp[id] != sc.epoch {
		sc.stamp[id] = sc.epoch
		sc.touched = append(sc.touched, id)
	}
	sc.dist[id] = d
}

func (sc *dijkstraScratch) getDist(id uint32) (shortest.Dist, bool) {
	if int(id) >= len(sc.stamp) || sc.stamp[id] != sc.epoch {
		return 0, false
	}
	return sc.dist[id], true
}

// hop is one weighted overlay edge, seen from the node whose list
// holds it.
type hop struct {
	to uint32
	w  shortest.Dist
}

// adjacency materialises the overlay's weighted out-edges of the given
// bridge nodes, indexed by global id: out[u] holds u's cross out-edges
// (weight 1) and, for an entry, the exits of its forward intra row
// within the horizon — one intra-row scan per entry, fanned across the
// worker pool.
func (o *overlay) adjacency(nodes []uint32) [][]hop {
	p := o.p
	H := o.sv.capHops()
	out := make([][]hop, p.g.NumIDs())
	workpool.ForEach(len(nodes), func(i int) {
		u := nodes[i]
		pu := p.partOf[u]
		var hops []hop
		if p.isExit(u) {
			for _, v := range p.g.Out(u) {
				if p.partIndex(v) != pu {
					hops = append(hops, hop{v, 1})
				}
			}
		}
		if p.isEntry(u) {
			pt := p.parts[pu]
			o.sv.intraBall(pu, p.localOf[u], H, false, func(local uint32, w shortest.Dist) bool {
				if v := pt.globals[local]; v != u && p.isExit(v) {
					hops = append(hops, hop{v, w})
				}
				return true
			})
		}
		out[u] = hops
	})
	return out
}

// transpose returns the exact transpose of an adjacency — the reverse
// Dijkstras' predecessor lists — carved from one backing array by
// in-degree, so the reverse direction costs no intra-row scan.
func transpose(out [][]hop) [][]hop {
	deg := make([]int, len(out))
	total := 0
	for _, hops := range out {
		for _, h := range hops {
			deg[h.to]++
		}
		total += len(hops)
	}
	in := make([][]hop, len(out))
	backing := make([]hop, total)
	for v, d := range deg {
		in[v], backing = backing[:0:d], backing[d:]
	}
	for u, hops := range out {
		for _, h := range hops {
			in[h.to] = append(in[h.to], hop{uint32(u), h.w})
		}
	}
	return in
}

// dijkstra runs a capped Dijkstra from src over adj (one direction of
// an adjacency) and returns ascending (cols, dists), src included at 0.
// Results alias sc and are valid until its next run; it only reads adj
// and the partition structures, so concurrent runs on distinct
// scratches are safe.
func (o *overlay) dijkstra(sc *dijkstraScratch, adj [][]hop, src uint32) ([]uint32, []shortest.Dist) {
	H := shortest.Dist(o.sv.capHops())
	nextEpoch(&sc.epoch, sc.stamp)
	sc.touched = sc.touched[:0]
	sc.heap = sc.heap[:0]
	if !o.p.g.Alive(src) || !o.p.isOverlay(src) {
		return nil, nil
	}
	sc.setDist(src, 0)
	sc.heap.push(heapItem{0, src})
	for len(sc.heap) > 0 {
		it := sc.heap.pop()
		if d, ok := sc.getDist(it.id); ok && it.d > d {
			continue // stale entry
		}
		for _, h := range adj[it.id] {
			nd := it.d + h.w
			if nd > H {
				continue
			}
			if cur, ok := sc.getDist(h.to); !ok || nd < cur {
				sc.setDist(h.to, nd)
				sc.heap.push(heapItem{nd, h.to})
			}
		}
	}
	nodeset.SortIDs(sc.touched)
	cols := sc.touched
	if cap(sc.distRow) < len(cols) {
		sc.distRow = make([]shortest.Dist, len(cols))
	}
	dists := sc.distRow[:len(cols)]
	for i, c := range cols {
		dists[i] = sc.dist[c]
	}
	return cols, dists
}

// overlayRow is one finished Dijkstra row, copied out of scratch so the
// scratch can return to the pool while the row waits for serial install.
type overlayRow struct {
	src   uint32
	cols  []uint32
	dists []shortest.Dist
}

// computeRows fans capped Dijkstras over adj from each source across
// the worker pool and returns the finished rows indexed like srcs. Dead
// or non-bridge sources yield empty rows.
func (o *overlay) computeRows(adj [][]hop, srcs []uint32) []overlayRow {
	rows := make([]overlayRow, len(srcs))
	workpool.ForEach(len(srcs), func(i int) {
		sc := o.scratch.Get().(*dijkstraScratch)
		cols, dists := o.dijkstra(sc, adj, srcs[i])
		rows[i] = overlayRow{
			src:   srcs[i],
			cols:  append([]uint32(nil), cols...),
			dists: append([]shortest.Dist(nil), dists...),
		}
		o.scratch.Put(sc)
	})
	return rows
}

// overlayNodes returns every current bridge node, sorted.
func (o *overlay) overlayNodes() []uint32 {
	var b nodeset.Builder
	for _, pt := range o.p.parts {
		for _, x := range pt.exits {
			b.Add(x)
		}
		for _, e := range pt.entries {
			b.Add(e)
		}
	}
	return b.Set()
}

// build computes all-pairs overlay distances from scratch, one parallel
// Dijkstra per bridge node (over a remote fleet, after bulk-fetching the
// bridge rows the adjacency reads).
func (o *overlay) build() {
	o.sv.planOverlayRows()
	nodes := o.overlayNodes()
	out := o.adjacency(nodes)
	n := o.p.g.NumIDs()
	o.fwd = shortest.NewHybrid(n)
	o.rev = shortest.NewHybrid(n)
	for _, row := range o.computeRows(out, nodes) {
		o.fwd.SetRow(row.src, row.cols, row.dists)
		for i, c := range row.cols {
			o.rev.Set(c, row.src, row.dists[i])
		}
	}
	o.sv.metrics.Counter("gpnm_overlay_sync_total", "mode", "build").Inc()
}

// recompute refreshes the overlay rows that the changes anchored at
// dirty can have moved since the matrices were last current; the old
// metric is read from the untouched rev rows. Both the per-anchor source
// discovery (reverse Dijkstras) and the per-source row recomputation
// (forward Dijkstras) run on the worker pool, over one adjacency of the
// new state; rows are installed serially.
func (o *overlay) recompute(dirty nodeset.Set) {
	o.fwd.GrowTo(o.p.g.NumIDs())
	o.rev.GrowTo(o.p.g.NumIDs())
	out := o.adjacency(o.overlayNodes())
	in := transpose(out)
	// Sources whose rows may change: anything that reached a dirty anchor
	// under the old metric (old rev rows), anything that reaches it under
	// the new metric (reverse Dijkstra on the new state), and the anchors
	// themselves.
	reached := o.computeRows(in, dirty)
	srcs := nodeset.NewBits(o.p.g.NumIDs())
	for i, d := range dirty {
		srcs.Add(d)
		o.rev.Row(d, func(c uint32, _ shortest.Dist) bool { srcs.Add(c); return true })
		for _, c := range reached[i].cols {
			srcs.Add(c)
		}
	}
	var srcList []uint32
	srcs.Range(func(s uint32) bool { srcList = append(srcList, s); return true })
	for _, row := range o.computeRows(out, srcList) {
		o.installRow(row.src, row.cols, row.dists)
	}
}

// installRow replaces fwd row s, mirroring deltas into rev.
func (o *overlay) installRow(s uint32, cols []uint32, dists []shortest.Dist) {
	o.oldCols = o.oldCols[:0]
	o.oldVals = o.oldVals[:0]
	o.fwd.Row(s, func(c uint32, d shortest.Dist) bool {
		o.oldCols = append(o.oldCols, c)
		o.oldVals = append(o.oldVals, d)
		return true
	})
	i, j := 0, 0
	for i < len(o.oldCols) || j < len(cols) {
		switch {
		case j == len(cols) || (i < len(o.oldCols) && o.oldCols[i] < cols[j]):
			o.rev.Set(o.oldCols[i], s, shortest.Inf)
			i++
		case i == len(o.oldCols) || cols[j] < o.oldCols[i]:
			o.rev.Set(cols[j], s, dists[j])
			j++
		default:
			if o.oldVals[i] != dists[j] {
				o.rev.Set(cols[j], s, dists[j])
			}
			i++
			j++
		}
	}
	o.fwd.SetRow(s, cols, dists)
}

// heapItem and dijkstraHeap implement a minimal binary min-heap; the
// overlay is small, so a hand-rolled slice heap beats container/heap's
// interface indirection.
type heapItem struct {
	d  shortest.Dist
	id uint32
}

type dijkstraHeap []heapItem

func (h *dijkstraHeap) push(it heapItem) {
	*h = append(*h, it)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if (*h)[parent].d <= (*h)[i].d {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

func (h *dijkstraHeap) pop() heapItem {
	old := *h
	top := old[0]
	last := len(old) - 1
	old[0] = old[last]
	*h = old[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && (*h)[l].d < (*h)[small].d {
			small = l
		}
		if r < last && (*h)[r].d < (*h)[small].d {
			small = r
		}
		if small == i {
			break
		}
		(*h)[i], (*h)[small] = (*h)[small], (*h)[i]
		i = small
	}
	return top
}
