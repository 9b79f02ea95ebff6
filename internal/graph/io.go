package graph

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// This file implements the on-disk interchange formats:
//
//   - SNAP edge lists ("FromNodeId\tToNodeId" per line, '#' comments), the
//     format of the five datasets in the paper's Table X, so the real
//     graphs can be dropped in when available; and
//   - a label file ("nodeID<TAB>label[,label...]" per line) since SNAP
//     files carry no labels.

// ReadEdgeList parses a SNAP-style edge list. Node ids in the file are
// arbitrary non-negative integers; they are remapped densely in order of
// first appearance. Every node is created with defaultLabel unless a
// label file is applied afterwards (see ApplyLabels). The returned map
// translates file ids to graph ids.
func ReadEdgeList(r io.Reader, labels *Labels, defaultLabel string) (*Graph, map[int64]NodeID, error) {
	g := New(labels)
	idMap := make(map[int64]NodeID)
	get := func(fileID int64) NodeID {
		if id, ok := idMap[fileID]; ok {
			return id
		}
		id := g.AddNode(defaultLabel)
		idMap[fileID] = id
		return id
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, nil, fmt.Errorf("graph: edge list line %d: want 2 fields, got %q", line, text)
		}
		from, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("graph: edge list line %d: %v", line, err)
		}
		to, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("graph: edge list line %d: %v", line, err)
		}
		if from == to {
			continue // SNAP graphs occasionally carry self-loops; GD is simple
		}
		g.AddEdge(get(from), get(to))
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("graph: reading edge list: %v", err)
	}
	return g, idMap, nil
}

// WriteEdgeList emits the graph in SNAP format, with a comment header.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# Directed graph: %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())
	fmt.Fprintf(bw, "# FromNodeId\tToNodeId\n")
	var err error
	g.Edges(func(e Edge) {
		if err == nil {
			_, err = fmt.Fprintf(bw, "%d\t%d\n", e.From, e.To)
		}
	})
	if err != nil {
		return fmt.Errorf("graph: writing edge list: %v", err)
	}
	return bw.Flush()
}

// ApplyLabels parses a label file and replaces the labels of the named
// nodes. Lines are "nodeID<TAB or space>label[,label...]"; '#' comments
// and blank lines are skipped. Unknown node ids are an error.
func (g *Graph) ApplyLabels(r io.Reader) error {
	_, err := g.applyLabelLines(r, func(fileID uint64) (NodeID, bool, error) {
		if fileID > uint64(^uint32(0)) {
			return 0, false, fmt.Errorf("node id %d out of range", fileID)
		}
		id := NodeID(fileID)
		if !g.Alive(id) {
			return 0, false, fmt.Errorf("node %d not in graph", id)
		}
		return id, true, nil
	})
	return err
}

// ApplyLabelsMapped parses a label file whose node ids are the original
// file ids of an edge list, translating them through the idMap returned
// by ReadEdgeList. Ids absent from the map (isolated nodes an edge list
// cannot carry) are skipped, and their count returned, rather than
// failing the whole load.
func (g *Graph) ApplyLabelsMapped(r io.Reader, idMap map[int64]NodeID) (skipped int, err error) {
	return g.applyLabelLines(r, func(fileID uint64) (NodeID, bool, error) {
		id, ok := idMap[int64(fileID)]
		return id, ok, nil
	})
}

// LoadFiles reads the edge list at edgesPath (ReadEdgeList, every node
// labelled defaultLabel) and, unless labelsPath is empty, applies the
// label file there through the edge list's id map (ApplyLabelsMapped),
// returning how many label lines named nodes the edge list does not
// carry.
func LoadFiles(edgesPath, labelsPath, defaultLabel string) (g *Graph, skipped int, err error) {
	ef, err := os.Open(edgesPath)
	if err != nil {
		return nil, 0, err
	}
	defer ef.Close()
	g, idMap, err := ReadEdgeList(ef, nil, defaultLabel)
	if err != nil {
		return nil, 0, fmt.Errorf("reading %s: %w", edgesPath, err)
	}
	if labelsPath == "" {
		return g, 0, nil
	}
	lf, err := os.Open(labelsPath)
	if err != nil {
		return nil, 0, err
	}
	defer lf.Close()
	if skipped, err = g.ApplyLabelsMapped(lf, idMap); err != nil {
		return nil, 0, fmt.Errorf("reading %s: %w", labelsPath, err)
	}
	return g, skipped, nil
}

// applyLabelLines is the shared label-file scanner behind ApplyLabels
// and ApplyLabelsMapped; resolve turns a parsed file id into a graph
// node (ok=false counts the line as skipped, an error aborts the load).
func (g *Graph) applyLabelLines(r io.Reader, resolve func(fileID uint64) (NodeID, bool, error)) (skipped int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return skipped, fmt.Errorf("graph: label file line %d: want \"node labels\", got %q", line, text)
		}
		fileID, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return skipped, fmt.Errorf("graph: label file line %d: %v", line, err)
		}
		id, ok, err := resolve(fileID)
		if err != nil {
			return skipped, fmt.Errorf("graph: label file line %d: %v", line, err)
		}
		if !ok {
			skipped++
			continue
		}
		var labs []LabelID
		for _, name := range strings.Split(fields[1], ",") {
			name = strings.TrimSpace(name)
			if name != "" {
				labs = append(labs, g.labels.Intern(name))
			}
		}
		if len(labs) == 0 {
			return skipped, fmt.Errorf("graph: label file line %d: node %d has no labels", line, fileID)
		}
		g.SetNodeLabels(id, labs...)
	}
	if err := sc.Err(); err != nil {
		return skipped, fmt.Errorf("graph: reading label file: %v", err)
	}
	return skipped, nil
}

// WriteLabels emits the label file for the graph.
func (g *Graph) WriteLabels(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# nodeID\tlabel[,label...]\n")
	var err error
	g.Nodes(func(id NodeID) {
		if err != nil {
			return
		}
		names := make([]string, 0, len(g.nlab[id]))
		for _, l := range g.nlab[id] {
			names = append(names, g.labels.Name(l))
		}
		_, err = fmt.Fprintf(bw, "%d\t%s\n", id, strings.Join(names, ","))
	})
	if err != nil {
		return fmt.Errorf("graph: writing labels: %v", err)
	}
	return bw.Flush()
}

// SetNodeLabels replaces the label set of node id, keeping the per-label
// index consistent. It reports false when id is not alive.
func (g *Graph) SetNodeLabels(id NodeID, labs ...LabelID) bool {
	if !g.Alive(id) {
		return false
	}
	for _, l := range g.nlab[id] {
		g.byLabel[l] = removeSorted(g.byLabel[l], id)
	}
	sort.Slice(labs, func(i, j int) bool { return labs[i] < labs[j] })
	labs = dedupLabels(labs)
	g.nlab[id] = labs
	for _, l := range labs {
		g.byLabel[l] = insertSorted(g.byLabel[l], id)
	}
	return true
}
