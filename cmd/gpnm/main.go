// Command gpnm answers GPNM queries from the command line, in two
// modes.
//
// Local mode loads a data graph (SNAP edge list plus optional label
// file) and a pattern (textual format), prints the initial node
// matching result, and — when an update script is supplied — processes
// it with the selected method and prints the subsequent result together
// with the elimination statistics:
//
//	gpnm -graph g.txt [-labels g.labels] -pattern p.txt \
//	     [-updates batch.txt] [-method UA-GPNM] [-horizon 3]
//
// Server mode runs the same query through a remote standing-query hub
// (gpnm-serve) over the versioned client SDK instead of building a
// local substrate: the pattern is registered, the update script is
// applied as one batch, and the query is unregistered on exit. The
// graph lives on the server, so -graph is not needed:
//
//	gpnm -server 127.0.0.1:8080 -pattern p.txt [-updates batch.txt]
//
// The update script format is documented in internal/updates.ParseScript
// (one "+e/-e/+n/-n/+pe/-pe/+pn/-pn" directive per line).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"uagpnm"
	"uagpnm/internal/core"
	"uagpnm/internal/ehtree"
	"uagpnm/internal/graph"
	"uagpnm/internal/pattern"
	"uagpnm/internal/updates"
	"uagpnm/internal/version"
)

func main() {
	graphPath := flag.String("graph", "", "data graph edge list (SNAP format); local mode only")
	labelsPath := flag.String("labels", "", "optional node label file; local mode only")
	patternPath := flag.String("pattern", "", "pattern graph (textual format)")
	updatesPath := flag.String("updates", "", "optional update script to process as SQuery")
	methodName := flag.String("method", "UA-GPNM", "Scratch | INC-GPNM | EH-GPNM | UA-GPNM-NoPar | UA-GPNM; local mode only")
	horizon := flag.Int("horizon", 0, "SLen hop cap (0 = exact distances); local mode only")
	server := flag.String("server", "", "gpnm-serve address (host:port or http:// URL); runs the query remotely through the client SDK")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String("gpnm"))
		return
	}

	if *patternPath == "" || (*server == "" && *graphPath == "") {
		fmt.Fprintln(os.Stderr, "gpnm: -pattern is required, plus -graph (local mode) or -server (remote mode)")
		flag.Usage()
		os.Exit(2)
	}
	if *server != "" {
		// runRemote returns (instead of exiting) so its deferred
		// unregister/close always run — a failed CLI run must not leave
		// an orphaned standing query on the server.
		fatalIf(runRemote(*server, *patternPath, *updatesPath))
		return
	}
	method, err := parseMethod(*methodName)
	fatalIf(err)

	g, skipped, err := graph.LoadFiles(*graphPath, *labelsPath, "node")
	fatalIf(err)
	if skipped > 0 {
		fmt.Fprintf(os.Stderr, "gpnm: %d label line(s) named nodes absent from the edge list (isolated); skipped\n", skipped)
	}
	pf, err := os.Open(*patternPath)
	fatalIf(err)
	p, err := uagpnm.ParsePattern(pf, g)
	pf.Close()
	fatalIf(err)

	stats := g.ComputeStats()
	fmt.Printf("graph: %d nodes, %d edges, %d labels\n", stats.Nodes, stats.Edges, stats.Labels)
	fmt.Printf("pattern: %d nodes, %d edges (method %v)\n\n", p.NumNodes(), p.NumEdges(), method)

	s := uagpnm.NewSession(g, p, uagpnm.Options{Method: method, Horizon: *horizon})
	fmt.Println("IQuery result:")
	printResult(s.Pattern(), func(u pattern.NodeID) uagpnm.NodeSet { return s.Result(u) })

	if *updatesPath == "" {
		return
	}
	batch, err := loadScript(*updatesPath)
	fatalIf(err)

	// EH-GPNM's stats carry the tree it grouped its passes by. The UA
	// methods run one pass whatever a tree says, so theirs is analysed
	// here, before the batch lands.
	var tree *ehtree.Tree
	if method == uagpnm.UAGPNM || method == uagpnm.UAGPNMNoPar {
		tree = s.Elimination(batch)
	}
	s.SQuery(batch)
	st := s.Stats()
	if tree != nil {
		st.TreeSize, st.TreeRoots, st.Eliminated = tree.Size(), len(tree.Roots), tree.EliminatedCount()
	}
	fmt.Printf("\nSQuery (%d pattern + %d data updates) in %v\n",
		st.PatternUpdates, st.DataUpdates, st.Duration)
	if st.TreeSize > 0 {
		fmt.Printf("EH-Tree: %d updates, %d roots, %d eliminated; %d amendment pass(es)\n",
			st.TreeSize, st.TreeRoots, st.Eliminated, st.Passes)
	}
	fmt.Println("\nSQuery result:")
	printResult(s.Pattern(), func(u pattern.NodeID) uagpnm.NodeSet { return s.Result(u) })
}

// runRemote drives the query through a gpnm-serve hub with the client
// SDK: register → (apply) → result → unregister, every step over the
// versioned /v1 protocol. Errors return (never exit) so the deferred
// unregister always removes the standing query from the server.
func runRemote(addr, patternPath, updatesPath string) error {
	ctx := context.Background()
	c, err := uagpnm.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	fmt.Printf("server: %s\n", c.Addr())

	// The pattern parses against a throwaway label table: label names
	// travel by name over the wire and re-intern server-side.
	pf, err := os.Open(patternPath)
	if err != nil {
		return err
	}
	p, err := uagpnm.ParsePattern(pf, uagpnm.NewGraph())
	pf.Close()
	if err != nil {
		return err
	}
	fmt.Printf("pattern: %d nodes, %d edges (remote standing query)\n\n", p.NumNodes(), p.NumEdges())

	id, err := c.Register(ctx, p)
	if err != nil {
		return err
	}
	defer func() { _ = c.Unregister(context.Background(), id) }()

	rp, rm, seq, err := c.Snapshot(ctx, id)
	if err != nil {
		return err
	}
	fmt.Printf("IQuery result (pattern id %d, seq %d):\n", id, seq)
	printResult(rp, rm.Nodes)

	if updatesPath == "" {
		return nil
	}
	batch, err := loadScript(updatesPath)
	if err != nil {
		return err
	}
	hb := uagpnm.HubBatch{D: batch.D}
	if len(batch.P) > 0 {
		hb.P = map[uagpnm.PatternID][]uagpnm.Update{id: batch.P}
	}
	start := time.Now()
	deltas, stats, err := c.ApplyBatch(ctx, hb)
	if err != nil {
		return err
	}
	fmt.Printf("\nApplyBatch (%d pattern + %d data updates) in %v (round trip %v; shared SLen sync %v)\n",
		len(batch.P), len(batch.D), stats.Duration, time.Since(start).Round(time.Microsecond), stats.SLenSync)
	for _, d := range deltas {
		if d.Pattern != id || len(d.Nodes) == 0 {
			continue
		}
		for _, nd := range d.Nodes {
			fmt.Printf("delta seq %d node %d: +%v -%v\n", d.Seq, nd.Node, nd.Added, nd.Removed)
		}
	}

	rp, rm, seq, err = c.Snapshot(ctx, id)
	if err != nil {
		return err
	}
	fmt.Printf("\nSQuery result (seq %d):\n", seq)
	printResult(rp, rm.Nodes)
	return nil
}

func loadScript(path string) (uagpnm.Batch, error) {
	f, err := os.Open(path)
	if err != nil {
		return uagpnm.Batch{}, err
	}
	defer f.Close()
	return updates.ParseScript(f)
}

func printResult(p *uagpnm.Pattern, result func(u pattern.NodeID) uagpnm.NodeSet) {
	p.Nodes(func(u pattern.NodeID) {
		set := result(u)
		names := make([]string, 0, set.Len())
		for _, id := range set {
			names = append(names, fmt.Sprintf("%d", id))
		}
		fmt.Printf("  %-12s (%s): {%s}\n", p.Name(u), p.LabelName(u), strings.Join(names, ", "))
	})
}

func parseMethod(name string) (core.Method, error) {
	for _, m := range core.Methods {
		if strings.EqualFold(m.String(), name) {
			return m, nil
		}
	}
	return 0, fmt.Errorf("gpnm: unknown method %q", name)
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpnm:", err)
		os.Exit(1)
	}
}
