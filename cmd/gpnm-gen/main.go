// Command gpnm-gen generates synthetic evaluation inputs: a social data
// graph (edge list + label file), a random pattern, and optionally an
// update script — everything cmd/gpnm consumes.
//
// Usage:
//
//	gpnm-gen -preset DBLP -out dblp              # one of the five stand-ins
//	gpnm-gen -nodes 5000 -edges 20000 -labels 12 -homophily 0.95 -out my
//	gpnm-gen -preset DBLP -mini -pattern-nodes 8 -updates 6,200 -out x
//
// Writes <out>.edges, <out>.labels, <out>.pattern and (with -updates)
// <out>.updates.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"uagpnm"
	"uagpnm/internal/datasets"
	"uagpnm/internal/graph"
	"uagpnm/internal/updates"
	"uagpnm/internal/version"
)

func main() {
	preset := flag.String("preset", "", "dataset preset: email-EU-core | DBLP | Amazon | Youtube | LiveJournal")
	mini := flag.Bool("mini", false, "use the mini (quick) preset scale")
	nodes := flag.Int("nodes", 2000, "nodes (custom config)")
	edges := flag.Int("edges", 8000, "edges (custom config)")
	labels := flag.Int("labels", 10, "distinct labels (custom config)")
	homophily := flag.Float64("homophily", 0.95, "intra-label edge fraction")
	prefAtt := flag.Float64("prefatt", 0.6, "preferential attachment probability")
	seed := flag.Int64("seed", 1, "generator seed")
	patternNodes := flag.Int("pattern-nodes", 8, "pattern nodes")
	patternEdges := flag.Int("pattern-edges", 8, "pattern edges")
	updateScale := flag.String("updates", "", "optional update batch scale \"p,d\" (e.g. 6,200)")
	out := flag.String("out", "dataset", "output file prefix")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String("gpnm-gen"))
		return
	}

	cfg := uagpnm.SocialGraphConfig{
		Name: "custom", Nodes: *nodes, Edges: *edges, Labels: *labels,
		Homophily: *homophily, PrefAtt: *prefAtt, Seed: *seed,
	}
	if *preset != "" {
		specs := datasets.Sim()
		if *mini {
			specs = datasets.Mini()
		}
		spec, ok := datasets.ByName(specs, *preset)
		if !ok {
			fatalf("unknown preset %q", *preset)
		}
		cfg = spec.SocialConfig
	}

	g := uagpnm.GenerateSocialGraph(cfg)
	writeTo(*out+".edges", func(f *os.File) error { return g.WriteEdgeList(f) })
	writeTo(*out+".labels", func(f *os.File) error { return g.WriteLabels(f) })

	// The consumer (cmd/gpnm) reloads the edge list, which remaps node
	// ids densely by first appearance and cannot carry isolated nodes —
	// so the pattern and update script must be generated against the
	// round-tripped graph, or their node ids would silently point
	// elsewhere. The label file stays keyed by the original ids: the
	// loader translates it through the same id map (ApplyLabelsMapped).
	g2 := reload(*out)
	if dropped := g.NumNodes() - g2.NumNodes(); dropped > 0 {
		fmt.Fprintf(os.Stderr, "gpnm-gen: %d isolated node(s) not representable in the edge list; dropped\n", dropped)
	}

	p := uagpnm.GeneratePattern(uagpnm.PatternConfig{
		Nodes: *patternNodes, Edges: *patternEdges,
		BoundMin: 1, BoundMax: 3, Seed: *seed + 1,
	}, g2)
	writeTo(*out+".pattern", func(f *os.File) error { return p.Format(f) })

	fmt.Printf("%s: %d nodes, %d edges, %d labels → %s.edges/.labels/.pattern\n",
		cfg.Name, g2.NumNodes(), g2.NumEdges(), g2.Labels().Count(), *out)

	if *updateScale != "" {
		var pc, dc int
		if _, err := fmt.Sscanf(strings.ReplaceAll(*updateScale, " ", ""), "%d,%d", &pc, &dc); err != nil {
			fatalf("bad -updates %q (want p,d)", *updateScale)
		}
		batch := uagpnm.GenerateBatch(*seed+2, pc, dc, g2, p)
		writeTo(*out+".updates", func(f *os.File) error {
			if _, err := io.WriteString(f, "# generated update batch\n"); err != nil {
				return err
			}
			return updates.FormatScript(f, batch)
		})
		fmt.Printf("update batch: %d pattern + %d data updates → %s.updates\n",
			len(batch.P), len(batch.D), *out)
	}
}

// reload reads the just-written artifacts back the way cmd/gpnm will,
// yielding the graph in the consumer's id space.
func reload(prefix string) *uagpnm.Graph {
	g2, _, err := graph.LoadFiles(prefix+".edges", prefix+".labels", "node")
	if err != nil {
		fatalf("re-reading %s: %v", prefix, err)
	}
	return g2
}

func writeTo(path string, fn func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		fatalf("%v", err)
	}
	if err := fn(f); err != nil {
		fatalf("%v", err)
	}
	if err := f.Close(); err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "gpnm-gen: "+format+"\n", args...)
	os.Exit(1)
}
