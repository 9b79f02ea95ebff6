package updates

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"

	"uagpnm/internal/pattern"
)

// Raw is an update as the script and the /v1 JSON spell it: a mnemonic
// ("+e" … "-pn") and untyped operands. Build ignores the operands its
// kind does not take; Update.Raw leaves them zero.
type Raw struct {
	Op     string
	From   uint32
	To     uint32
	Node   uint32
	Labels []string
	Bound  string
}

// Build makes the update r spells: a data node insert needs at least
// one label, a pattern node insert exactly one, and a pattern edge
// insert's bound parses with pattern.ParseBound.
func (r Raw) Build() (Update, error) {
	k := kindOf(r.Op)
	if !k.valid() {
		return Update{}, fmt.Errorf("unknown update op %q", r.Op)
	}
	u := Update{Kind: k}
	for _, o := range grammar[k].operands {
		switch o {
		case opFrom:
			u.From = r.From
		case opTo:
			u.To = r.To
		case opNode:
			u.Node = r.Node
		case opLabels:
			if len(r.Labels) == 0 {
				return Update{}, fmt.Errorf("update %q: node insert needs labels", r.Op)
			}
			u.Labels = r.Labels
		case opLabel:
			if len(r.Labels) != 1 {
				return Update{}, fmt.Errorf("update %q: pattern node insert needs exactly one label", r.Op)
			}
			u.Labels = r.Labels
		case opBound:
			b, err := pattern.ParseBound(r.Bound)
			if err != nil {
				return Update{}, fmt.Errorf("update %q: %v", r.Op, err)
			}
			u.Bound = b
		}
	}
	return u, nil
}

// Raw spells u: its mnemonic and the operands its kind carries. An
// unknown kind spells as the zero Raw.
func (u Update) Raw() Raw {
	if !u.Kind.valid() {
		return Raw{}
	}
	r := Raw{Op: grammar[u.Kind].op}
	for _, o := range grammar[u.Kind].operands {
		switch o {
		case opFrom:
			r.From = u.From
		case opTo:
			r.To = u.To
		case opNode:
			r.Node = u.Node
		case opLabels, opLabel:
			r.Labels = u.Labels
		case opBound:
			r.Bound = u.Bound.String()
		}
	}
	return r
}

// ParseScript reads a textual update batch — the CLI's input format.
// One update per line; '#' comments and blanks skipped:
//
//	+e <from> <to>        insert data edge
//	-e <from> <to>        delete data edge
//	+n <id> <label,...>   insert data node (id must be the next free id)
//	-n <id>               delete data node
//	+pe <from> <to> <k|*> insert pattern edge
//	-pe <from> <to>       delete pattern edge
//	+pn <id> <label>      insert pattern node
//	-pn <id>              delete pattern node
//
// Ids are numeric (data-graph and pattern-graph node ids respectively).
// The directives are the grammar table's mnemonics, and each line's
// update is made by Raw.Build, as a /v1 body's is.
func ParseScript(r io.Reader) (Batch, error) {
	var b Batch
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		u, err := parseScriptLine(fields)
		if err != nil {
			return Batch{}, fmt.Errorf("updates: line %d: %v", line, err)
		}
		if u.Kind.IsData() {
			b.D = append(b.D, u)
		} else {
			b.P = append(b.P, u)
		}
	}
	if err := sc.Err(); err != nil {
		return Batch{}, fmt.Errorf("updates: reading script: %v", err)
	}
	return b, nil
}

func parseScriptLine(fields []string) (Update, error) {
	r := Raw{Op: fields[0]}
	k := kindOf(r.Op)
	if !k.valid() {
		return Update{}, fmt.Errorf("unknown directive %q", r.Op)
	}
	ops := grammar[k].operands
	if len(fields) != 1+len(ops) {
		return Update{}, fmt.Errorf("directive %q wants %d fields, got %d", r.Op, 1+len(ops), len(fields))
	}
	for i, o := range ops {
		switch f := fields[1+i]; o {
		case opLabels:
			r.Labels = strings.Split(f, ",")
		case opLabel:
			r.Labels = []string{f}
		case opBound:
			r.Bound = f
		default:
			v, err := strconv.ParseUint(f, 10, 32)
			if err != nil {
				return Update{}, fmt.Errorf("bad node id %q", f)
			}
			*r.id(o) = uint32(v)
		}
	}
	return r.Build()
}

// FormatScript writes b in the ParseScript format, ΔGD then ΔGP, so
// that ParseScript reads back the same batch. It writes nothing and
// returns an error if some update is one the text cannot carry: on the
// wrong side, refused by Raw.Build, or with a label that is empty,
// holds whitespace or, in a data node insert's comma-joined list, holds
// a comma.
func FormatScript(w io.Writer, b Batch) error {
	var sb strings.Builder
	for side, us := range [2][]Update{b.D, b.P} {
		for _, u := range us {
			line, err := scriptLine(u)
			if err == nil && u.Kind.IsData() != (side == 0) {
				err = errors.New("on the wrong side of the batch")
			}
			if err != nil {
				return fmt.Errorf("updates: %v: %v", u, err)
			}
			sb.WriteString(line)
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

func scriptLine(u Update) (string, error) {
	r := u.Raw()
	if _, err := r.Build(); err != nil {
		return "", err
	}
	line := []string{r.Op}
	for _, o := range grammar[u.Kind].operands {
		switch o {
		case opLabels, opLabel:
			for _, l := range r.Labels {
				if l == "" || strings.ContainsFunc(l, unicode.IsSpace) || (o == opLabels && strings.Contains(l, ",")) {
					return "", fmt.Errorf("label %q is not a script field", l)
				}
			}
			line = append(line, strings.Join(r.Labels, ","))
		case opBound:
			line = append(line, r.Bound)
		default:
			line = append(line, strconv.FormatUint(uint64(*r.id(o)), 10))
		}
	}
	return strings.Join(line, " ") + "\n", nil
}

// id points at r's node-id operand o (opFrom, opTo or opNode).
func (r *Raw) id(o operand) *uint32 {
	switch o {
	case opFrom:
		return &r.From
	case opTo:
		return &r.To
	}
	return &r.Node
}
