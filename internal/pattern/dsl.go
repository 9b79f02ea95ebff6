package pattern

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"uagpnm/internal/graph"
)

// This file implements the textual pattern format used by the CLI and
// the examples. The pattern of Fig. 1(b) reads:
//
//	# An IT project team
//	node pm PM
//	node se SE
//	node te TE
//	node s  S
//	edge pm se 3
//	edge pm s  4
//	edge se te 3
//	edge s  te *
//
// "node <name> <label>" declares a pattern node; "edge <from> <to> <bound>"
// declares an edge whose bound is a positive integer or "*".

// Parse reads a pattern in the textual format. Node names must be unique
// within the pattern; edges may reference only declared nodes.
func Parse(r io.Reader, labels *graph.Labels) (*Graph, error) {
	p := New(labels)
	byName := make(map[string]NodeID)
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "node":
			if len(fields) != 3 {
				return nil, fmt.Errorf("pattern: line %d: want \"node <name> <label>\", got %q", line, text)
			}
			name := fields[1]
			if _, dup := byName[name]; dup {
				return nil, fmt.Errorf("pattern: line %d: duplicate node %q", line, name)
			}
			byName[name] = p.AddNamedNode(name, fields[2])
		case "edge":
			if len(fields) != 4 {
				return nil, fmt.Errorf("pattern: line %d: want \"edge <from> <to> <bound>\", got %q", line, text)
			}
			from, ok := byName[fields[1]]
			if !ok {
				return nil, fmt.Errorf("pattern: line %d: unknown node %q", line, fields[1])
			}
			to, ok := byName[fields[2]]
			if !ok {
				return nil, fmt.Errorf("pattern: line %d: unknown node %q", line, fields[2])
			}
			b, err := ParseBound(fields[3])
			if err != nil {
				return nil, fmt.Errorf("pattern: line %d: %v", line, err)
			}
			if !p.AddEdge(from, to, b) {
				return nil, fmt.Errorf("pattern: line %d: edge %s->%s rejected (duplicate or self loop)",
					line, fields[1], fields[2])
			}
		default:
			return nil, fmt.Errorf("pattern: line %d: unknown directive %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("pattern: reading: %v", err)
	}
	return p, nil
}

// ParseBound parses "3" or "*" into a Bound. A hop count that does not
// fit the Bound's 32 bits is an error, never a wrapped value.
func ParseBound(s string) (Bound, error) {
	if s == "*" {
		return Star, nil
	}
	k, err := strconv.ParseInt(s, 10, 32)
	if err != nil || k < 1 {
		return 0, fmt.Errorf("bound must be a positive integer or \"*\", got %q", s)
	}
	return Bound(k), nil
}

// Format writes the pattern in the textual format, one directive per line.
func (p *Graph) Format(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# pattern: %d nodes, %d edges\n", p.NumNodes(), p.NumEdges())
	var err error
	p.Nodes(func(id NodeID) {
		if err == nil {
			_, err = fmt.Fprintf(bw, "node %s %s\n", p.names[id], p.LabelName(id))
		}
	})
	p.Edges(func(e Edge) {
		if err == nil {
			_, err = fmt.Fprintf(bw, "edge %s %s %s\n", p.names[e.From], p.names[e.To], e.B)
		}
	})
	if err != nil {
		return fmt.Errorf("pattern: formatting: %v", err)
	}
	return bw.Flush()
}

// String renders the pattern in the textual format.
func (p *Graph) String() string {
	var b strings.Builder
	_ = p.Format(&b)
	return b.String()
}
