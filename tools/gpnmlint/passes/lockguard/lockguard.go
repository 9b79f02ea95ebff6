// Package lockguard flags blocking calls made while a sync.Mutex or
// sync.RWMutex acquired in the same function is still held. A mutex
// held across an HTTP round trip, a channel operation or a worker-pool
// fan turns one slow shard into a stalled coordinator — the deadlock
// class the PR 8 read plane's lock/RPC interleavings made easy to
// reintroduce.
//
// The analysis is deliberately function-local: it interprets one
// function body's statement list, tracking the set of locks held at
// each point. Branch bodies are scanned with a copy of the held set;
// the state after a branch is the intersection of the non-terminating
// paths, so `mu.Unlock(); return` inside an if-arm neither leaks nor
// clears the fallthrough state. Function literals are separate
// functions: a fan inside a FuncLit blocks the pool goroutine, not the
// lock holder, and the literal's own body gets its own scan.
package lockguard

import (
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"

	"uagpnm/tools/gpnmlint/internal/lintkit"
)

var Analyzer = &lintkit.Analyzer{
	Name: "lockguard",
	Doc: "no sync.Mutex/RWMutex acquired in a function may still be held " +
		"across a blocking call (shard.RPC/shard.Shard methods, net/http " +
		"clients, channel operations, workpool fans, time.Sleep, WaitGroup.Wait)",
	Run: run,
}

func run(pass *lintkit.Pass) error {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				if x.Body != nil {
					newScan(pass).block(x.Body.List, held{})
				}
				return true // descend: nested FuncLits get their own scan
			case *ast.FuncLit:
				newScan(pass).block(x.Body.List, held{})
				return true
			}
			return true
		})
	}
	return nil
}

// held maps a lock's printed receiver expression ("r.mu") to where it
// was acquired.
type held map[string]token.Pos

func (h held) clone() held {
	c := held{}
	for k, v := range h {
		c[k] = v
	}
	return c
}

// intersect keeps only locks held in both states (earliest acquire pos).
func intersect(a, b held) held {
	out := held{}
	for k, v := range a {
		if w, ok := b[k]; ok {
			if w < v {
				v = w
			}
			out[k] = v
		}
	}
	return out
}

type scan struct {
	pass *lintkit.Pass
	info *types.Info
	fset *token.FileSet
}

func newScan(pass *lintkit.Pass) *scan {
	return &scan{pass: pass, info: pass.Pkg.Info, fset: pass.Pkg.Fset}
}

// block interprets one statement list, mutating and returning the held
// set; the second result reports whether the list definitely terminates
// (ends in return, panic, or an unconditional branch).
func (s *scan) block(stmts []ast.Stmt, h held) (held, bool) {
	for _, st := range stmts {
		var term bool
		h, term = s.stmt(st, h)
		if term {
			return h, true
		}
	}
	return h, false
}

func (s *scan) stmt(st ast.Stmt, h held) (held, bool) {
	switch x := st.(type) {
	case *ast.ExprStmt:
		s.expr(x.X, h)
		s.applyLockOps(x.X, h)
		if isPanicCall(s.info, x.X) {
			return h, true
		}
	case *ast.AssignStmt:
		for _, e := range x.Rhs {
			s.expr(e, h)
		}
		for _, e := range x.Lhs {
			s.expr(e, h)
		}
		for _, e := range x.Rhs {
			s.applyLockOps(e, h)
		}
	case *ast.DeclStmt:
		s.expr(x.Decl, h)
	case *ast.SendStmt:
		s.expr(x.Chan, h)
		s.expr(x.Value, h)
		s.reportBlocking(x, "channel send", h)
	case *ast.IncDecStmt:
		s.expr(x.X, h)
	case *ast.DeferStmt:
		// A deferred unlock releases at return — the lock stays held
		// for the rest of the body, which is exactly what the held set
		// already says, so a defer contributes nothing here. Deferred
		// *locks* or blocking calls run after the body; skip them too.
	case *ast.GoStmt:
		// The spawned goroutine does not run under this function's
		// locks; its FuncLit body is scanned independently by run.
		for _, a := range x.Call.Args {
			s.expr(a, h)
		}
	case *ast.ReturnStmt:
		for _, e := range x.Results {
			s.expr(e, h)
		}
		return h, true
	case *ast.BranchStmt:
		// break/continue/goto leave this statement list.
		return h, true
	case *ast.BlockStmt:
		return s.block(x.List, h)
	case *ast.IfStmt:
		if x.Init != nil {
			h, _ = s.stmt(x.Init, h)
		}
		s.expr(x.Cond, h)
		thenOut, thenTerm := s.block(x.Body.List, h.clone())
		elseOut, elseTerm := h, false
		if x.Else != nil {
			elseOut, elseTerm = s.stmt(x.Else, h.clone())
		}
		switch {
		case thenTerm && elseTerm:
			return h, true
		case thenTerm:
			return elseOut, false
		case elseTerm:
			return thenOut, false
		default:
			return intersect(thenOut, elseOut), false
		}
	case *ast.ForStmt:
		if x.Init != nil {
			h, _ = s.stmt(x.Init, h)
		}
		if x.Cond != nil {
			s.expr(x.Cond, h)
		}
		s.block(x.Body.List, h.clone())
		// The body may run zero times; keep the entry state.
	case *ast.RangeStmt:
		s.expr(x.X, h)
		s.block(x.Body.List, h.clone())
	case *ast.SwitchStmt:
		if x.Init != nil {
			h, _ = s.stmt(x.Init, h)
		}
		if x.Tag != nil {
			s.expr(x.Tag, h)
		}
		for _, c := range x.Body.List {
			s.block(c.(*ast.CaseClause).Body, h.clone())
		}
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			h, _ = s.stmt(x.Init, h)
		}
		for _, c := range x.Body.List {
			s.block(c.(*ast.CaseClause).Body, h.clone())
		}
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range x.Body.List {
			if c.(*ast.CommClause).Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			s.reportBlocking(x, "select without default", h)
		}
		for _, c := range x.Body.List {
			s.block(c.(*ast.CommClause).Body, h.clone())
		}
	case *ast.LabeledStmt:
		return s.stmt(x.Stmt, h)
	}
	return h, false
}

// applyLockOps updates h for Lock/RLock/Unlock/RUnlock calls appearing
// in e (outside nested function literals).
func (s *scan) applyLockOps(e ast.Node, h held) {
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		key, op := s.lockOp(call)
		if key == "" {
			return true
		}
		switch op {
		case "Lock", "RLock":
			h[key] = call.Pos()
		case "Unlock", "RUnlock":
			delete(h, key)
		}
		return true
	})
}

// lockOp recognises a mutex method call and returns the lock's identity
// key (printed receiver expression) and the method name.
func (s *scan) lockOp(call *ast.CallExpr) (key, op string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", ""
	}
	recv := lintkit.ReceiverType(s.info, call)
	if !lintkit.NamedIs(recv, "sync", "Mutex") && !lintkit.NamedIs(recv, "sync", "RWMutex") {
		return "", ""
	}
	return exprString(s.fset, sel.X), sel.Sel.Name
}

// expr reports blocking operations inside e while h is non-empty,
// without descending into function literals.
func (s *scan) expr(e ast.Node, h held) {
	if len(h) == 0 || e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				s.reportBlocking(x, "channel receive", h)
			}
		case *ast.CallExpr:
			if what := s.blockingCall(x); what != "" {
				s.reportBlocking(x, what, h)
			}
		}
		return true
	})
}

// blockingCall classifies e as a blocking operation, returning a short
// description or "".
func (s *scan) blockingCall(call *ast.CallExpr) string {
	fn := lintkit.Callee(s.info, call)
	if fn == nil {
		return ""
	}
	recv := lintkit.ReceiverType(s.info, call)
	switch {
	case lintkit.NamedIs(recv, "internal/shard", "RPC"):
		return fmt.Sprintf("shard RPC %s", fn.Name())
	case lintkit.NamedIs(recv, "internal/shard", "Shard"):
		return fmt.Sprintf("shard.Shard.%s (may be a remote round trip)", fn.Name())
	case lintkit.NamedIs(recv, "net/http", "Client"):
		return fmt.Sprintf("http.Client.%s", fn.Name())
	case lintkit.NamedIs(recv, "sync", "WaitGroup") && fn.Name() == "Wait":
		return "WaitGroup.Wait"
	}
	if fn.Pkg() != nil {
		switch {
		case fn.Pkg().Path() == "net/http" && (fn.Name() == "Get" || fn.Name() == "Post" ||
			fn.Name() == "Head" || fn.Name() == "PostForm"):
			return "http." + fn.Name()
		case fn.Pkg().Path() == "time" && fn.Name() == "Sleep":
			return "time.Sleep"
		case lintkit.FuncPkgSuffix(fn, "internal/workpool") && strings.HasPrefix(fn.Name(), "ForEach"):
			return "worker-pool fan " + fn.Name()
		}
	}
	return ""
}

func (s *scan) reportBlocking(n ast.Node, what string, h held) {
	if len(h) == 0 {
		return
	}
	var locks []string
	for k, pos := range h {
		locks = append(locks, fmt.Sprintf("%s (acquired line %d)", k, s.fset.Position(pos).Line))
	}
	// Deterministic output for multi-lock states.
	for i := 0; i < len(locks); i++ {
		for j := i + 1; j < len(locks); j++ {
			if locks[j] < locks[i] {
				locks[i], locks[j] = locks[j], locks[i]
			}
		}
	}
	s.pass.Reportf(n, "%s while holding %s", what, strings.Join(locks, ", "))
}

func isPanicCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	return ok && lintkit.IsBuiltin(info, call, "panic")
}

func exprString(fset *token.FileSet, e ast.Expr) string {
	var b strings.Builder
	_ = printer.Fprint(&b, fset, e)
	return b.String()
}
