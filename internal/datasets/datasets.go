// Package datasets provides the evaluation substrate of §VII-A: the five
// social graphs of Table X. The module is offline, so the SNAP files are
// replaced by synthetic stand-ins that preserve the properties the
// algorithms are sensitive to: the relative scale
// ordering, heavy-tailed degree distributions (preferential attachment),
// and label homophily — nodes of the same role connecting densely, the
// premise of the paper's label-based partition. Real SNAP edge lists
// load through graph.ReadEdgeList and drop in unchanged.
package datasets

import (
	"fmt"
	"math/rand"

	"uagpnm/internal/graph"
)

// SocialConfig parameterises the synthetic social-graph generator.
type SocialConfig struct {
	Name      string
	Nodes     int
	Edges     int
	Labels    int     // distinct role labels (≥ 1)
	Homophily float64 // fraction of edges kept inside one label class
	PrefAtt   float64 // probability an endpoint is drawn preferentially
	Seed      int64
}

// LabelName returns the i-th role label ("role00", "role01", …).
func LabelName(i int) string { return fmt.Sprintf("role%02d", i) }

// GenerateSocial builds a directed social graph per cfg: nodes receive
// one of cfg.Labels role labels (mildly skewed class sizes), and edges
// are sampled with preferential attachment on both endpoints, with
// probability cfg.Homophily forced to stay inside the source's label
// class. Self-loops and duplicates are rejected; the generator retries,
// so the edge count is met except on pathologically dense configs.
func GenerateSocial(cfg SocialConfig) *graph.Graph {
	if cfg.Labels < 1 {
		cfg.Labels = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := graph.New(nil)

	// Skewed label assignment: class i gets weight 1/(1+i/4), giving a
	// realistic mix of large and small roles.
	weights := make([]float64, cfg.Labels)
	total := 0.0
	for i := range weights {
		weights[i] = 1.0 / (1.0 + float64(i)/4.0)
		total += weights[i]
	}
	byLabel := make([][]uint32, cfg.Labels)
	labelIdx := make([]int, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		r := rng.Float64() * total
		l := 0
		for ; l < cfg.Labels-1; l++ {
			if r < weights[l] {
				break
			}
			r -= weights[l]
		}
		id := g.AddNode(LabelName(l))
		byLabel[l] = append(byLabel[l], id)
		labelIdx[id] = l
	}

	// Preferential pools: every edge endpoint is appended, so sampling a
	// pool element is degree-proportional (the classic PA shortcut).
	srcPool := make([]uint32, 0, cfg.Edges)
	dstPool := make([]uint32, 0, cfg.Edges)
	labelOf := func(id uint32) int { return labelIdx[id] }
	pickUniform := func() uint32 { return uint32(rng.Intn(cfg.Nodes)) }
	pickSrc := func() uint32 {
		if len(srcPool) > 0 && rng.Float64() < cfg.PrefAtt {
			return srcPool[rng.Intn(len(srcPool))]
		}
		return pickUniform()
	}
	pickDst := func(srcLabel int) uint32 {
		if rng.Float64() < cfg.Homophily {
			members := byLabel[srcLabel]
			if len(members) > 1 {
				return members[rng.Intn(len(members))]
			}
		}
		if len(dstPool) > 0 && rng.Float64() < cfg.PrefAtt {
			return dstPool[rng.Intn(len(dstPool))]
		}
		return pickUniform()
	}
	added := 0
	for attempts := 0; added < cfg.Edges && attempts < cfg.Edges*30; attempts++ {
		u := pickSrc()
		v := pickDst(labelOf(u))
		if g.AddEdge(u, v) {
			srcPool = append(srcPool, u)
			dstPool = append(dstPool, v)
			added++
		}
	}
	return g
}

// Spec names one evaluation dataset and its generator configuration.
type Spec struct {
	SocialConfig
	// PaperNodes/PaperEdges document the original SNAP scale this spec
	// stands in for (Table X).
	PaperNodes, PaperEdges int
}

// Sim returns the five stand-in datasets at reproduction scale:
// email-EU-core at its original size, the other four scaled down
// 1/20–1/125 with the paper's ordering preserved (PaperNodes/PaperEdges
// carry the Table X originals).
func Sim() []Spec {
	return []Spec{
		{SocialConfig{Name: "email-EU-core", Nodes: 1005, Edges: 25571, Labels: 10, Homophily: 0.90, PrefAtt: 0.6, Seed: 11}, 1005, 25571},
		{SocialConfig{Name: "DBLP", Nodes: 15854, Edges: 52493, Labels: 24, Homophily: 0.95, PrefAtt: 0.6, Seed: 12}, 317080, 1049866},
		{SocialConfig{Name: "Amazon", Nodes: 16743, Edges: 46293, Labels: 24, Homophily: 0.95, PrefAtt: 0.6, Seed: 13}, 334863, 925872},
		{SocialConfig{Name: "Youtube", Nodes: 22698, Edges: 59752, Labels: 28, Homophily: 0.94, PrefAtt: 0.7, Seed: 14}, 1134890, 2987624},
		{SocialConfig{Name: "LiveJournal", Nodes: 31984, Edges: 138725, Labels: 30, Homophily: 0.95, PrefAtt: 0.7, Seed: 15}, 3997962, 34681189},
	}
}

// Mini returns reduced datasets for quick runs (`go test -bench`),
// preserving the Sim ordering at roughly quarter scale.
func Mini() []Spec {
	return []Spec{
		{SocialConfig{Name: "email-EU-core", Nodes: 500, Edges: 6000, Labels: 8, Homophily: 0.90, PrefAtt: 0.6, Seed: 11}, 1005, 25571},
		{SocialConfig{Name: "DBLP", Nodes: 2000, Edges: 6600, Labels: 12, Homophily: 0.95, PrefAtt: 0.6, Seed: 12}, 317080, 1049866},
		{SocialConfig{Name: "Amazon", Nodes: 2100, Edges: 5800, Labels: 12, Homophily: 0.95, PrefAtt: 0.6, Seed: 13}, 334863, 925872},
		{SocialConfig{Name: "Youtube", Nodes: 2800, Edges: 7400, Labels: 14, Homophily: 0.94, PrefAtt: 0.7, Seed: 14}, 1134890, 2987624},
		{SocialConfig{Name: "LiveJournal", Nodes: 4000, Edges: 17000, Labels: 15, Homophily: 0.95, PrefAtt: 0.7, Seed: 15}, 3997962, 34681189},
	}
}

// ByName returns the spec with the given name from specs, or false.
func ByName(specs []Spec, name string) (Spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}
