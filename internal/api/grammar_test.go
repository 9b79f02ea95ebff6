package api

import (
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"

	"uagpnm/internal/pattern"
	"uagpnm/internal/updates"
)

// allKinds is one update of each of the eight kinds, operands non-zero
// so omitempty cannot hide a dropped field.
var allKinds = []updates.Update{
	{Kind: updates.DataEdgeInsert, From: 1, To: 2},
	{Kind: updates.DataEdgeDelete, From: 3, To: 4},
	{Kind: updates.DataNodeInsert, Node: 5, Labels: []string{"A", "B"}},
	{Kind: updates.DataNodeDelete, Node: 6},
	{Kind: updates.PatternEdgeInsert, From: 7, To: 8, Bound: 3},
	{Kind: updates.PatternEdgeInsert, From: 8, To: 7, Bound: pattern.Star},
	{Kind: updates.PatternEdgeDelete, From: 9, To: 10},
	{Kind: updates.PatternNodeInsert, Node: 11, Labels: []string{"C"}},
	{Kind: updates.PatternNodeDelete, Node: 12},
}

// TestUpdateJSONGolden pins the /v1 JSON of every update kind, byte for
// byte, and that it decodes back to the same updates.
func TestUpdateJSONGolden(t *testing.T) {
	const want = `[{"op":"+e","from":1,"to":2},` +
		`{"op":"-e","from":3,"to":4},` +
		`{"op":"+n","node":5,"labels":["A","B"]},` +
		`{"op":"-n","node":6},` +
		`{"op":"+pe","from":7,"to":8,"bound":"3"},` +
		`{"op":"+pe","from":8,"to":7,"bound":"*"},` +
		`{"op":"-pe","from":9,"to":10},` +
		`{"op":"+pn","node":11,"labels":["C"]},` +
		`{"op":"-pn","node":12}]`
	got, err := json.Marshal(EncodeUpdates(allKinds))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("wire JSON\n got %s\nwant %s", got, want)
	}
	var ws []Update
	if err := json.Unmarshal(got, &ws); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeUpdates(ws)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, allKinds) {
		t.Fatalf("decoded %v, want %v", back, allKinds)
	}
}

// FuzzUpdateGrammar holds the update grammar's three forms to one
// another:
//
//   - any script text leaves updates.ParseScript without a panic;
//   - what ParseScript accepts, updates.FormatScript writes back to text
//     that parses to the same batch — or refuses, which it may only for
//     an empty label ("+n 3 A,,B" parses, and no text writes it back);
//   - an update Raw.Build makes from fuzzed operands (labels split on
//     newlines) survives /v1 encode → JSON → decode unchanged, and
//     FormatScript either refuses it or round-trips it.
//
// Plain `go test` runs the seeds; the "a,b" seed is a data node
// insert's one label holding a comma, which the script cannot carry.
func FuzzUpdateGrammar(f *testing.F) {
	f.Add("+e 1 2\n-e 2 3\n+n 6 A,B\n-n 4\n+pe 0 1 3\n+pe 1 0 *\n-pe 0 1\n+pn 2 B\n-pn 1\n",
		"+n", uint32(0), uint32(0), uint32(6), "A\nB", "")
	f.Add("+n 3 A,,B\n+pn 2 a,b\n", "+n", uint32(0), uint32(0), uint32(3), "a,b", "")
	f.Add("# comment\n\n  +pe 00 1 +3  \n-pe 1\n", "+pe", uint32(1), uint32(2), uint32(9), "", "*")
	f.Add("+pn 1\n", "+pn", uint32(0), uint32(0), uint32(1), "x\ny", "")
	f.Add("frob 1 2\n", "+pn", uint32(0), uint32(0), uint32(2), "a b", "")
	f.Add("+e 4294967295 0\n+e 4294967296 0\n", "+pe", uint32(1), uint32(1), uint32(0), "", "0")
	f.Fuzz(func(t *testing.T, script, op string, from, to, node uint32, labels, bound string) {
		if b, err := updates.ParseScript(strings.NewReader(script)); err == nil {
			var text strings.Builder
			if err := updates.FormatScript(&text, b); err != nil {
				if !slices.ContainsFunc(slices.Concat(b.D, b.P), func(u updates.Update) bool { return slices.Contains(u.Labels, "") }) {
					t.Fatalf("FormatScript refused a parsed batch: %v\nscript %q", err, script)
				}
			} else if back, err := updates.ParseScript(strings.NewReader(text.String())); err != nil || !reflect.DeepEqual(back, b) {
				t.Fatalf("script %q parsed to %v, written as %q, read back as %v (%v)", script, b, text.String(), back, err)
			}
		}

		r := updates.Raw{Op: op, From: from, To: to, Node: node, Bound: bound}
		if labels != "" {
			r.Labels = strings.Split(labels, "\n")
		}
		u, err := r.Build()
		if err != nil || len(labels) > 1<<10 {
			return
		}
		// JSON strings are UTF-8: encoding/json writes an invalid byte
		// as U+FFFD, so only valid labels can cross the wire unchanged.
		if utf8.ValidString(labels) {
			data, err := json.Marshal(EncodeUpdate(u))
			if err != nil {
				t.Fatal(err)
			}
			var w Update
			if err := json.Unmarshal(data, &w); err != nil {
				t.Fatal(err)
			}
			if back, err := w.Decode(); err != nil || !reflect.DeepEqual(back, u) {
				t.Fatalf("%v crossed /v1 as %s and came back as %v (%v)", u, data, back, err)
			}
		}
		b := updates.Batch{P: []updates.Update{u}}
		if u.Kind.IsData() {
			b = updates.Batch{D: []updates.Update{u}}
		}
		var text strings.Builder
		if updates.FormatScript(&text, b) != nil {
			return
		}
		if back, err := updates.ParseScript(strings.NewReader(text.String())); err != nil || !reflect.DeepEqual(back, b) {
			t.Fatalf("%v written as %q, read back as %v (%v)", u, text.String(), back, err)
		}
	})
}
