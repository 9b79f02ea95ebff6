package pattern

import (
	"slices"
	"testing"

	"uagpnm/internal/graph"
)

func TestSignatureOf(t *testing.T) {
	labels := graph.NewLabels()
	// Intern out of pattern order so ascending ids differ from insertion order.
	idB, idA := labels.Intern("B"), labels.Intern("A")
	p := New(labels)
	a := p.AddNode("A")
	b := p.AddNode("B")
	c := p.AddNode("A") // duplicate label: the signature keeps the larger reach
	p.AddEdge(a, b, 2)
	p.AddEdge(b, c, Star)
	p.AddEdge(c, a, 1)

	if sig := SignatureOf(p); !slices.Equal(sig, []LabelReach{{idB, Unbounded}, {idA, 2}}) {
		t.Fatalf("signature = %v, want the 2 distinct ids ascending (%d at *, %d at 2)", sig, idB, idA)
	}

	// ΔGP refresh: node removal drops its label and its edges from a
	// fresh extraction, node insertion adds a sink's label at reach 0.
	p.RemoveNode(b)
	if sig := SignatureOf(p); !slices.Equal(sig, []LabelReach{{idA, 1}}) {
		t.Fatalf("signature after removing the B node = %v, want [{%d 1}]", sig, idA)
	}
	p.AddNode("C")
	if sig := SignatureOf(p); !slices.Equal(sig, []LabelReach{{idA, 1}, {labels.Intern("C"), 0}}) {
		t.Fatalf("signature after adding a C node = %v", sig)
	}

	if sig := SignatureOf(New(labels)); len(sig) != 0 {
		t.Fatalf("empty pattern signature = %v", sig)
	}
}
