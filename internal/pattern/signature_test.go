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
	c := p.AddNode("A") // duplicate label
	p.AddEdge(a, b, 2)
	p.AddEdge(b, c, Star) // bounds are no part of the signature
	p.AddEdge(c, a, 1)

	if sig := SignatureOf(p); !slices.Equal(sig, []graph.LabelID{idB, idA}) {
		t.Fatalf("labels = %v, want the 2 distinct ids ascending (%d, %d)", sig, idB, idA)
	}

	// ΔGP refresh: node removal drops its label from a fresh extraction,
	// node insertion adds one.
	p.RemoveNode(b)
	if sig := SignatureOf(p); !slices.Equal(sig, []graph.LabelID{idA}) {
		t.Fatalf("labels after removing the B node = %v, want [%d]", sig, idA)
	}
	p.AddNode("C")
	if sig := SignatureOf(p); !slices.Equal(sig, []graph.LabelID{idA, labels.Intern("C")}) {
		t.Fatalf("labels after adding a C node = %v", sig)
	}

	if sig := SignatureOf(New(labels)); len(sig) != 0 {
		t.Fatalf("empty pattern signature = %v", sig)
	}
}
