package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"uagpnm/internal/shortest"
)

// The bulk answers of the read plane — /rows and /ops — cross the wire
// as little-endian uint32 words (requests, ops and /build snapshots stay
// JSON: they are small next to the rows). Every body opens with one
// magic+version word; then
//
//	/rows   n, n rows                    (one per request)
//	/ops    n, n id sets                 (one per op)
//	        m, m rows                    (one per warm request)
//
//	id set  n, n ids                     or the one word setNil
//	row     L, end[0..L), end[L-1] ids   or the one word tagUnchanged
//	                                     or tagNotOwned
//
// A row's words are the Row itself — its layer count, its layer table,
// then its ids layer after layer — so encoding is one copy and decoding
// is one allocation per row, narrow when every word fits 16 bits (the
// width NewRow picks for the same contents). The decoder trusts no
// length word: each is checked against the words that remain before
// anything is allocated (an item takes at least one word), a layer table
// must be nondecreasing, and a body must end exactly where its last item
// does.
const (
	wireVersion = 1
	wireMagic   = uint32('g') | uint32('r')<<8 | uint32('w')<<16 | wireVersion<<24

	setNil       = ^uint32(0)
	tagNotOwned  = ^uint32(0)
	tagUnchanged = ^uint32(0) - 1

	// maxLayers bounds a row's layer table: distances are shortest.Dist
	// values below Inf.
	maxLayers = int(shortest.Inf)
)

var errWireShort = errors.New("shard wire: body ends inside an item")

// rowState says what one slot of a bulk row answer holds.
type rowState uint8

const (
	rowNotOwned  rowState = iota // the worker has no engine for the partition (the zero answer)
	rowFull                      // the row, computed from the worker's current state
	rowUnchanged                 // the row the client said it holds is still current
)

// rowAnswer is one slot of a bulk row answer, aligned with its request.
// Not-owned is explicit so the client never installs it as an (empty)
// row: a routing race during failover would poison its cache.
type rowAnswer struct {
	state rowState
	row   Row
}

// opsResponse carries, aligned by op index, the local affected set of
// every op the worker owns (nil otherwise), plus the answers to the
// piggybacked warm demand, computed from the post-apply state.
type opsResponse struct {
	aff  [][]uint32
	rows []rowAnswer
}

func rowsWords(rows []rowAnswer) int {
	n := 1
	for _, a := range rows {
		n += max(1, a.row.words()) // a full row's words, or the one tag word
	}
	return n
}

func setsWords(sets [][]uint32) int {
	n := 1
	for _, s := range sets {
		n += 1 + len(s)
	}
	return n
}

// newWireBody starts a body sized for the given payload words.
func newWireBody(words int) []byte {
	return binary.LittleEndian.AppendUint32(make([]byte, 0, 4*(1+words)), wireMagic)
}

func appendWords[W rowWord](b []byte, ws []W) []byte {
	n := len(b)
	b = slices.Grow(b, 4*len(ws))[:n+4*len(ws)]
	for i, w := range ws {
		binary.LittleEndian.PutUint32(b[n+4*i:], uint32(w))
	}
	return b
}

func appendSets(b []byte, sets [][]uint32) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(sets)))
	for _, s := range sets {
		if s == nil {
			b = binary.LittleEndian.AppendUint32(b, setNil)
			continue
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
		b = appendWords(b, s)
	}
	return b
}

func appendRows(b []byte, rows []rowAnswer) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(rows)))
	for _, a := range rows {
		switch a.state {
		case rowFull:
			if a.row.narrow != nil {
				b = appendWords(b, a.row.narrow)
			} else {
				b = appendWords(b, a.row.wide)
			}
		case rowUnchanged:
			b = binary.LittleEndian.AppendUint32(b, tagUnchanged)
		default:
			b = binary.LittleEndian.AppendUint32(b, tagNotOwned)
		}
	}
	return b
}

func encodeRows(rows []rowAnswer) []byte {
	return appendRows(newWireBody(rowsWords(rows)), rows)
}

func encodeOpsResponse(resp opsResponse) []byte {
	b := newWireBody(setsWords(resp.aff) + rowsWords(resp.rows))
	return appendRows(appendSets(b, resp.aff), resp.rows)
}

// wireReader holds the words of a body not yet consumed.
type wireReader struct{ b []byte }

// openWire checks the framing of a body and consumes its magic word.
func openWire(data []byte) (wireReader, error) {
	if len(data) < 4 || len(data)%4 != 0 {
		return wireReader{}, fmt.Errorf("shard wire: a %d-byte body is not a word stream", len(data))
	}
	if m := binary.LittleEndian.Uint32(data); m != wireMagic {
		return wireReader{}, fmt.Errorf("shard wire: body opens with %#08x, want %#08x: coordinator and worker speak different versions of the row format", m, wireMagic)
	}
	return wireReader{data[4:]}, nil
}

func (r *wireReader) remaining() int { return len(r.b) / 4 }

func (r *wireReader) word() (uint32, error) {
	if len(r.b) < 4 {
		return 0, errWireShort
	}
	w := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return w, nil
}

// count reads a length word and checks it against the words that
// remain: every item it announces takes at least one.
func (r *wireReader) count() (int, error) {
	n, err := r.word()
	if err != nil {
		return 0, err
	}
	if uint64(n) > uint64(r.remaining()) {
		return 0, errWireShort
	}
	return int(n), nil
}

// readWords fills dst from the next len(dst) words, each of which fits
// a W; the caller has checked that they remain.
func readWords[W rowWord](r *wireReader, dst []W) {
	for i := range dst {
		dst[i] = W(binary.LittleEndian.Uint32(r.b[4*i:]))
	}
	r.b = r.b[4*len(dst):]
}

// narrow reports whether the next n words all fit 16 bits; the caller
// has checked that they remain.
func (r *wireReader) narrow(n int) bool {
	for i := 0; i < n; i++ {
		if binary.LittleEndian.Uint32(r.b[4*i:]) > math.MaxUint16 {
			return false
		}
	}
	return true
}

// close rejects whatever follows the last item.
func (r *wireReader) close() error {
	if len(r.b) != 0 {
		return fmt.Errorf("shard wire: %d words of trailing garbage", r.remaining())
	}
	return nil
}

func (r *wireReader) sets() ([][]uint32, error) {
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	sets := make([][]uint32, n)
	for i := range sets {
		head, err := r.word()
		if err != nil {
			return nil, err
		}
		if head == setNil {
			continue
		}
		if uint64(head) > uint64(r.remaining()) {
			return nil, errWireShort
		}
		sets[i] = make([]uint32, head)
		readWords(r, sets[i])
	}
	return sets, nil
}

func (r *wireReader) rows() ([]rowAnswer, error) {
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	rows := make([]rowAnswer, n)
	for i := range rows {
		tag, err := r.word()
		if err != nil {
			return nil, err
		}
		switch tag {
		case tagNotOwned:
			continue
		case tagUnchanged:
			rows[i].state = rowUnchanged
			continue
		}
		layers := int(tag)
		if layers < 1 || layers > maxLayers {
			return nil, fmt.Errorf("shard wire: row %d announces %d layers", i, tag)
		}
		if layers > r.remaining() {
			return nil, errWireShort
		}
		// The layer table comes first: its last entry says how many ids follow.
		ids := binary.LittleEndian.Uint32(r.b[4*(layers-1):])
		if uint64(ids) > uint64(r.remaining()-layers) {
			return nil, errWireShort
		}
		// The layer count, read as the tag, leads the row's words; at
		// most maxLayers, it fits either width.
		var row Row
		var d int
		if n := layers + int(ids); r.narrow(n) {
			row.narrow = make([]uint16, 1+n)
			row.narrow[0] = uint16(layers)
			readWords(r, row.narrow[1:])
			d = unordered(row.narrow)
		} else {
			row.wide = make([]uint32, 1+n)
			row.wide[0] = tag
			readWords(r, row.wide[1:])
			d = unordered(row.wide)
		}
		if d > 0 {
			return nil, fmt.Errorf("shard wire: row %d: layer %d ends before layer %d", i, d, d-1)
		}
		rows[i] = rowAnswer{state: rowFull, row: row}
	}
	return rows, nil
}

// unordered returns the first layer d of a row's words whose end lies
// before layer d-1's, or 0 when the layer table is nondecreasing.
func unordered[W rowWord](buf []W) int {
	end := buf[1 : 1+int(buf[0])]
	for d := 1; d < len(end); d++ {
		if end[d] < end[d-1] {
			return d
		}
	}
	return 0
}

// decodeRows parses a /rows answer.
func decodeRows(data []byte) ([]rowAnswer, error) {
	r, err := openWire(data)
	if err != nil {
		return nil, err
	}
	rows, err := r.rows()
	if err != nil {
		return nil, err
	}
	return rows, r.close()
}

// decodeOpsResponse parses an /ops answer.
func decodeOpsResponse(data []byte) (opsResponse, error) {
	r, err := openWire(data)
	if err != nil {
		return opsResponse{}, err
	}
	var resp opsResponse
	if resp.aff, err = r.sets(); err != nil {
		return opsResponse{}, err
	}
	if resp.rows, err = r.rows(); err != nil {
		return opsResponse{}, err
	}
	return resp, r.close()
}
