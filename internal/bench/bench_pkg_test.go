package bench

import (
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"uagpnm/internal/core"
	"uagpnm/internal/datasets"
)

// tinyProtocol keeps unit tests fast: one small dataset, one size, two
// scales, one rep.
func tinyProtocol() Protocol {
	return Protocol{
		Datasets: []datasets.Spec{
			{SocialConfig: datasets.SocialConfig{Name: "email-EU-core", Nodes: 150, Edges: 700, Labels: 5, Homophily: 0.8, PrefAtt: 0.5, Seed: 1}},
		},
		PatternSizes: [][2]int{{6, 6}},
		Scales:       [][2]int{{3, 8}, {4, 16}},
		Reps:         1,
		Horizon:      3,
		Methods:      ComparedMethods,
	}
}

func TestProtocolRunProducesAllCells(t *testing.T) {
	res := tinyProtocol().Run()
	want := 1 * 1 * 2 * len(ComparedMethods)
	if len(res.Cells) != want {
		t.Fatalf("cells = %d, want %d", len(res.Cells), want)
	}
	for _, c := range res.Cells {
		if c.Runs != 1 {
			t.Errorf("cell %+v: runs = %d, want 1", c, c.Runs)
		}
		if c.TotalSeconds <= 0 {
			t.Errorf("cell %+v: no time recorded", c)
		}
	}
}

func TestReportsRender(t *testing.T) {
	res := tinyProtocol().Run()
	xi := res.TableXI()
	for _, want := range []string{"Table XI", "email-EU-core", "UA-GPNM", "INC-GPNM", "Average"} {
		if !strings.Contains(xi, want) {
			t.Errorf("Table XI missing %q:\n%s", want, xi)
		}
	}
	xii := res.TableXII()
	if !strings.Contains(xii, "vs INC-GPNM") || !strings.Contains(xii, "% less") {
		t.Errorf("Table XII malformed:\n%s", xii)
	}
	xiii := res.TableXIII()
	if !strings.Contains(xiii, "(3, 8)") || !strings.Contains(xiii, "(4, 16)") {
		t.Errorf("Table XIII malformed:\n%s", xiii)
	}
	xiv := res.TableXIV()
	if !strings.Contains(xiv, "Table XIV") {
		t.Errorf("Table XIV malformed:\n%s", xiv)
	}
	fig := res.Figure("email-EU-core")
	for _, want := range []string{"Fig. 5", "pattern graph = (6, 6)", "UA-GPNM"} {
		if !strings.Contains(fig, want) {
			t.Errorf("figure missing %q:\n%s", want, fig)
		}
	}
	csv := res.CSV()
	if !strings.Contains(csv, "dataset,pattern_nodes") || strings.Count(csv, "\n") != len(res.Cells)+1 {
		t.Errorf("CSV malformed:\n%s", csv)
	}
	// The env block is what makes BENCH_seed.json readable on another
	// machine: exactly these three keys, nothing scenario-specific.
	raw, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Env   map[string]int    `json:"env"`
		Cells []json.RawMessage `json:"cells"`
	}
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatalf("JSON dump does not parse: %v\n%s", err, raw)
	}
	if len(dump.Cells) != len(res.Cells) {
		t.Errorf("JSON cells = %d, want %d", len(dump.Cells), len(res.Cells))
	}
	wantEnv := map[string]int{
		"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
	}
	if !reflect.DeepEqual(dump.Env, wantEnv) {
		t.Errorf("JSON env = %v, want %v", dump.Env, wantEnv)
	}
}

func TestFigureNumber(t *testing.T) {
	cases := map[string]int{
		"email-EU-core": 5, "DBLP": 6, "Amazon": 7, "Youtube": 8, "LiveJournal": 9, "x": 0,
	}
	for name, want := range cases {
		if got := FigureNumber(name); got != want {
			t.Errorf("FigureNumber(%s) = %d, want %d", name, got, want)
		}
	}
}

func TestReduction(t *testing.T) {
	if r := reduction(50, 100); r != 0.5 {
		t.Fatalf("reduction = %v, want 0.5", r)
	}
	if r := reduction(1, 0); r != 0 {
		t.Fatalf("reduction vs zero = %v, want 0", r)
	}
}

func TestFmtSecs(t *testing.T) {
	cases := map[float64]string{
		0: "-", 2.5: "2.50s", 0.0042: "4.20ms", 0.0000015: "2µs",
	}
	for in, want := range cases {
		if got := fmtSecs(in); got != want {
			t.Errorf("fmtSecs(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestDefaultProtocols(t *testing.T) {
	full := Default(false)
	mini := Default(true)
	if len(full.Datasets) != 5 || len(mini.Datasets) != 5 {
		t.Fatal("both protocols must carry five datasets")
	}
	if full.Scales[4][1] != 1000 || mini.Scales[4][1] != 200 {
		t.Fatalf("scales wrong: full %v mini %v", full.Scales, mini.Scales)
	}
	if len(full.PatternSizes) != 5 {
		t.Fatal("pattern sizes wrong")
	}
}

// TestMethodOrderingShape checks the paper's headline shape on a tiny
// instance: UA-GPNM must not be slower than INC-GPNM on average (the
// full-scale shape is recorded in EXPERIMENTS.md; at tiny scale we only
// assert the weak ordering to keep the test robust to noise).
func TestMethodOrderingShape(t *testing.T) {
	p := tinyProtocol()
	p.Reps = 3
	res := p.Run()
	ua := res.MethodAverage("", core.UAGPNM)
	inc := res.MethodAverage("", core.INCGPNM)
	if ua <= 0 || inc <= 0 {
		t.Fatal("missing measurements")
	}
	if ua > inc*1.5 {
		t.Errorf("UA-GPNM (%v) much slower than INC-GPNM (%v): shape inverted", ua, inc)
	}
}
