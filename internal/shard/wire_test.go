package shard

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"uagpnm/internal/nodeset"
	"uagpnm/internal/shortest"
)

// randomRow builds a row of n ids spread over the given number of
// layers, ascending within each — the shape an engine scan yields.
func randomRow(rng *rand.Rand, n, layers int) Row {
	ids := randomIDs(rng, n)
	dists := make([]shortest.Dist, n)
	for i := range dists {
		dists[i] = shortest.Dist(rng.Intn(layers))
	}
	return NewRow(ids, dists)
}

// randomIDs returns n ascending ids a few apart.
func randomIDs(rng *rand.Rand, n int) []uint32 {
	ids := make([]uint32, n)
	next := uint32(0)
	for i := range ids {
		next += 1 + uint32(rng.Intn(5))
		ids[i] = next
	}
	return ids
}

// edgeAnswers is every shape a row answer takes: the empty row of a dead
// source, a single-layer row, a few-layer row, an exact-horizon row with
// more layers than a byte counts, the widest narrow row and a wide one,
// not-owned and unchanged.
func edgeAnswers(rng *rand.Rand) []rowAnswer {
	chain := make([]uint32, 300)
	chainD := make([]shortest.Dist, 300)
	for i := range chain {
		chain[i], chainD[i] = uint32(i), shortest.Dist(i)
	}
	return []rowAnswer{
		{state: rowFull, row: NewRow(nil, nil)},
		{state: rowFull, row: NewRow([]uint32{7}, []shortest.Dist{0})},
		{state: rowFull, row: randomRow(rng, 40, 4)},
		{state: rowFull, row: NewRow(chain, chainD)},
		{state: rowFull, row: NewRow([]uint32{9, math.MaxUint16}, []shortest.Dist{0, 2})},
		{state: rowFull, row: NewRow([]uint32{9, 1 << 20, 4}, []shortest.Dist{0, 1, 1})},
		{state: rowNotOwned},
		{state: rowUnchanged},
	}
}

// TestRowWidth pins the width rule — 16-bit words exactly when every
// word fits one — and that a row of either width reads back the entries
// it was built from.
func TestRowWidth(t *testing.T) {
	all := make([]uint32, math.MaxUint16+1) // every 16-bit id: the count no longer fits
	for i := range all {
		all[i] = uint32(i)
	}
	for _, tc := range []struct {
		ids    []uint32
		narrow bool
	}{
		{nil, true},
		{[]uint32{0, math.MaxUint16}, true},
		{[]uint32{0, math.MaxUint16 + 1}, false},
		{[]uint32{5, math.MaxUint32, 6}, false},
		{all, false},
	} {
		dists := make([]shortest.Dist, len(tc.ids))
		for i := range dists {
			dists[i] = shortest.Dist(min(i, 3))
		}
		r := NewRow(tc.ids, dists)
		if (r.narrow != nil) != tc.narrow || (r.wide != nil) == tc.narrow {
			t.Errorf("%d ids up to %d: narrow=%v wide=%v, want narrow=%v", len(tc.ids), slices.Max(append(tc.ids, 0)), r.narrow != nil, r.wide != nil, tc.narrow)
		}
		if r.Len() != len(tc.ids) {
			t.Errorf("%d ids: Len %d", len(tc.ids), r.Len())
		}
		i := 0
		r.Visit(int(shortest.Inf), func(v uint32, d shortest.Dist) bool {
			if i >= len(tc.ids) || v != tc.ids[i] || d != dists[i] {
				t.Fatalf("%d ids: entry %d reads (%d, %d)", len(tc.ids), i, v, d)
			}
			i++
			return true
		})
		if i != len(tc.ids) {
			t.Errorf("%d ids: Visit read %d", len(tc.ids), i)
		}
	}
}

// TestRowLayerScans pins the layer-range reads on narrow and wide rows:
// Layers, and Scan and ScanIn over every range (empty and
// clamped ones included) equal the entries with a distance in range —
// ScanIn only the members of a random set — and a callback that stops
// the scan is called no further.
func TestRowLayerScans(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, base := range []uint32{0, math.MaxUint16} {
		var ids []uint32
		var dists []shortest.Dist
		for d := 0; d < 4; d++ {
			for i := 0; i < 1+rng.Intn(5); i++ {
				ids = append(ids, base+uint32(len(ids)))
				dists = append(dists, shortest.Dist(d))
			}
		}
		r := NewRow(ids, dists)
		if r.Layers() != 4 {
			t.Fatalf("base %d: %d layers, want 4", base, r.Layers())
		}
		set := nodeset.NewBits(0)
		for _, id := range ids {
			if rng.Intn(2) == 0 {
				set.Add(id)
			}
		}
		for from := -1; from <= 5; from++ {
			for to := -1; to <= 5; to++ {
				var want, wantIn []uint32
				for i, id := range ids {
					if int(dists[i]) >= from && int(dists[i]) <= to {
						want = append(want, id)
						if set.Contains(id) {
							wantIn = append(wantIn, id)
						}
					}
				}
				var got, gotIn []uint32
				r.Scan(from, to, func(v uint32, d shortest.Dist) bool {
					if int(d) < from || int(d) > to {
						t.Fatalf("base %d: Scan(%d, %d) reads distance %d", base, from, to, d)
					}
					got = append(got, v)
					return true
				})
				r.ScanIn(from, to, set, func(v uint32) bool { gotIn = append(gotIn, v); return true })
				if !slices.Equal(got, want) || !slices.Equal(gotIn, wantIn) {
					t.Fatalf("base %d: Scan(%d, %d) = %v, ScanIn = %v; want %v, %v", base, from, to, got, gotIn, want, wantIn)
				}
				calls := 0
				done := r.ScanIn(from, to, set, func(uint32) bool { calls++; return false })
				if done != (len(wantIn) == 0) || calls != min(len(wantIn), 1) {
					t.Fatalf("base %d: ScanIn(%d, %d) stopped at once reports %v after %d calls", base, from, to, done, calls)
				}
			}
		}
	}
}

func TestWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 50; trial++ {
		answers := edgeAnswers(rng)
		for i := rng.Intn(20); i > 0; i-- {
			answers = append(answers, rowAnswer{state: rowFull, row: randomRow(rng, rng.Intn(120), 1+rng.Intn(6))})
		}
		rng.Shuffle(len(answers), func(i, j int) { answers[i], answers[j] = answers[j], answers[i] })

		got, err := decodeRows(encodeRows(answers))
		if err != nil {
			t.Fatalf("trial %d: decodeRows: %v", trial, err)
		}
		if !reflect.DeepEqual(got, answers) {
			t.Fatalf("trial %d: /rows answer changed on the wire:\n got %v\nwant %v", trial, got, answers)
		}

		// nil (not this worker's op) and empty (its op, nothing moved)
		// affected sets must stay apart, with warm rows and without.
		for _, resp := range []opsResponse{
			{aff: [][]uint32{nil, {}, {3}, nil, {1, 2, 70000}}, rows: answers},
			{aff: [][]uint32{nil, {}, nodeset.New(5, 9), nodeset.New(rng.Uint32())}, rows: []rowAnswer{}},
		} {
			for i := rng.Intn(8); i > 0; i-- {
				resp.aff = append(resp.aff, nodeset.New(rng.Uint32(), rng.Uint32(), rng.Uint32()))
			}
			gotResp, err := decodeOpsResponse(encodeOpsResponse(resp))
			if err != nil {
				t.Fatalf("trial %d: decodeOpsResponse: %v", trial, err)
			}
			if !reflect.DeepEqual(gotResp, resp) {
				t.Fatalf("trial %d: /ops answer changed on the wire:\n got %v\nwant %v", trial, gotResp, resp)
			}
		}
	}

	// An answer with no warm rows and no ops is still a body.
	if resp, err := decodeOpsResponse(encodeOpsResponse(opsResponse{})); err != nil || len(resp.aff) != 0 || len(resp.rows) != 0 {
		t.Fatalf("empty /ops answer: %v, %v", resp, err)
	}
}

func words(ws ...uint32) []byte { return appendWords(nil, ws) }

// TestWireRejects feeds the decoders the bodies a broken or foreign peer
// could send. None may decode, and none may allocate what its length
// words promise.
func TestWireRejects(t *testing.T) {
	huge := uint32(0xfffffff0)
	good := encodeRows([]rowAnswer{{state: rowFull, row: NewRow([]uint32{1, 2}, []shortest.Dist{0, 1})}})
	for _, tc := range []struct {
		name string
		body []byte
		want string // substring of the error
	}{
		{"empty", nil, "not a word stream"},
		{"ragged", good[:len(good)-1], "not a word stream"},
		{"json", []byte(`{"rows":[]}x`), "different versions"},
		{"next version", words(wireMagic+1<<24, 0), "different versions"},
		{"no count", words(wireMagic), "ends inside"},
		{"truncated", good[:len(good)-4], "ends inside"},
		{"trailing garbage", append(bytes.Clone(good), 0, 0, 0, 0), "trailing garbage"},
		{"hostile row count", words(wireMagic, huge), "ends inside"},
		{"hostile layer count", words(wireMagic, 1, 70000, 0), "announces"},
		{"hostile id count", words(wireMagic, 1, 2, 1, huge), "ends inside"},
		{"zero layers", words(wireMagic, 1, 0), "announces"},
		{"layers out of order", words(wireMagic, 1, 3, 2, 1, 2, 8, 9), "ends before"},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeRows(tc.body)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: decodeRows error = %v, want one mentioning %q", tc.name, err, tc.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
			t.Errorf("%s: decodeRows allocated %d bytes for a %d-byte body", tc.name, grew, len(tc.body))
		}
	}
	for _, body := range [][]byte{
		words(wireMagic, huge),          // hostile set count
		words(wireMagic, 1, huge),       // hostile id count
		words(wireMagic, 1, 1, 5, 0, 9), // trailing garbage after the rows section
		words(wireMagic, 0),             // no rows section
		words(wireMagic, 2, setNil),     // one set short
	} {
		if _, err := decodeOpsResponse(body); err == nil {
			t.Errorf("decodeOpsResponse(% x) decoded", body)
		}
	}
}

// wireSeeds are the fuzzers' starting corpus: real answers of every
// shape, and the rejects of TestWireRejects' families. The bodies are
// kept to a few dozen words — the engine minimises every interesting
// input it derives byte by byte, and on seeds the size of edgeAnswers'
// 300-layer row that is where a CI-sized budget went.
func wireSeeds(f *testing.F) {
	answers := []rowAnswer{
		{state: rowFull, row: NewRow(nil, nil)},
		{state: rowFull, row: NewRow([]uint32{7}, []shortest.Dist{0})},
		{state: rowFull, row: NewRow([]uint32{2, 3, 5, 8, 9, 11}, []shortest.Dist{0, 1, 1, 3, 2, 3})},
		{state: rowFull, row: NewRow([]uint32{2, 1 << 20}, []shortest.Dist{0, 1})},
		{state: rowNotOwned},
		{state: rowUnchanged},
	}
	rows := encodeRows(answers)
	ops := encodeOpsResponse(opsResponse{aff: [][]uint32{nil, {}, {4, 5}}, rows: answers[1:]})
	for _, seed := range [][]byte{
		rows, ops, rows[:len(rows)/2], ops[:len(ops)-4], nil,
		append(bytes.Clone(rows), 1, 2, 3, 4),
		[]byte(`{"aff":[[1]],"rows":[{"ok":true}]}`),
		words(wireMagic, 0xfffffff0), words(wireMagic, 1, 65535, 0), words(wireMagic, 0, 0),
	} {
		f.Add(seed)
	}
}

// checkDecoded is what any accepted body must satisfy: it holds no more
// words than the body had (so no length word bought an allocation), and
// it encodes back to exactly the body (the form is canonical: nothing a
// decoder ignored, nothing trailing).
func checkDecoded(t *testing.T, data []byte, held int, again []byte) {
	t.Helper()
	if held > len(data)/4 {
		t.Fatalf("a %d-byte body decoded into %d words", len(data), held)
	}
	if !bytes.Equal(again, data) {
		t.Fatalf("decoded body re-encodes differently:\n in  % x\n out % x", data, again)
	}
}

func heldWords(rows []rowAnswer) int {
	n := 0
	for _, a := range rows {
		n += max(1, a.row.words())
		if a.state == rowFull {
			// Whatever the words say, a decoded row must be safe to read.
			a.row.Visit(int(shortest.Inf), func(uint32, shortest.Dist) bool { return true })
		}
	}
	return n
}

func FuzzDecodeRows(f *testing.F) {
	wireSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, err := decodeRows(data)
		if err != nil {
			return
		}
		checkDecoded(t, data, heldWords(rows), encodeRows(rows))
	})
}

func FuzzDecodeOpsResponse(f *testing.F) {
	wireSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := decodeOpsResponse(data)
		if err != nil {
			return
		}
		held := len(resp.aff) + heldWords(resp.rows)
		for _, s := range resp.aff {
			held += len(s)
		}
		checkDecoded(t, data, held, encodeOpsResponse(resp))
	})
}
