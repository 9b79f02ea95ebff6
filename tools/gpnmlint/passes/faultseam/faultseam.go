// Package faultseam enforces the partition layer's failover seam:
// inside internal/partition, an error from a direct shard.Shard
// interface call must either be probed against nil on the spot (the
// recovery controller's liveness idiom) or flow into the fault plumbing
// — a shardFail/poison call or a shardFault literal — which unwinds the
// protected phase as a repairable *shardFault. Discarding the error
// swallows a shard loss; returning it raw bypasses recovery and hands
// callers an error the engine was built to absorb.
package faultseam

import (
	"go/ast"
	"go/token"
	"go/types"

	"uagpnm/tools/gpnmlint/internal/lintkit"
)

// routers are the fault-plumbing entry points an error may flow into.
var routers = map[string]bool{"shardFail": true, "poison": true}

var Analyzer = &lintkit.Analyzer{
	Name: "faultseam",
	Doc: "in internal/partition, errors from shard.Shard interface calls must " +
		"be nil-probed directly or routed into the failover seam " +
		"(shardFail/poison/shardFault); discards and raw returns are diagnostics",
	Run: run,
}

func run(pass *lintkit.Pass) error {
	if !lintkit.PathHasSuffix(pass.Pkg.ImportPath, "internal/partition") {
		return nil
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

func checkFunc(pass *lintkit.Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		stack = append(stack, n)
		call, ok := n.(*ast.CallExpr)
		if !ok || !isShardIfaceErrCall(info, call) {
			return true
		}
		classify(pass, fd, call, stack)
		return true
	})
}

// isShardIfaceErrCall reports whether call is a method call through the
// shard.Shard interface whose last result is an error. Calls on a
// concrete shard type (a worker's embedded *shard.Local, a test oracle)
// are exempt: their errors are in-process and don't represent a lost
// worker. The coordinator makes no such call: it reaches even its
// in-process shard through the interface.
func isShardIfaceErrCall(info *types.Info, call *ast.CallExpr) bool {
	if !lintkit.NamedIs(lintkit.ReceiverType(info, call), "internal/shard", "Shard") {
		return false
	}
	fn := lintkit.Callee(info, call)
	if fn == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	return types.Identical(last, types.Universe.Lookup("error").Type())
}

// classify inspects the syntactic context of one shard call and reports
// when its error escapes the failover seam.
func classify(pass *lintkit.Pass, fd *ast.FuncDecl, call *ast.CallExpr, stack []ast.Node) {
	parent := parentOf(stack)
	switch p := parent.(type) {
	case *ast.BinaryExpr:
		// sh.Ping() != nil — the direct liveness probe.
		if (p.Op == token.NEQ || p.Op == token.EQL) && (isNil(pass, p.X) || isNil(pass, p.Y)) {
			return
		}
	case *ast.AssignStmt:
		errObj := boundErrVar(pass.Pkg.Info, p, call)
		if errObj == nil {
			pass.Reportf(call, "shard error discarded (bound to _); route it through shardFail/poison or annotate")
			return
		}
		if routedInFunc(pass.Pkg.Info, fd.Body, errObj) {
			return
		}
		if returnedInFunc(pass.Pkg.Info, fd.Body, errObj) {
			pass.Reportf(call, "shard error %q returned raw; convert it to a *shardFault (shardFail) inside the failover region", errObj.Name())
			return
		}
		pass.Reportf(call, "shard error %q is not routed into the failover seam (shardFail/poison/shardFault literal)", errObj.Name())
		return
	case *ast.ExprStmt:
		pass.Reportf(call, "shard call result discarded; route the error through shardFail/poison or annotate")
		return
	case *ast.ReturnStmt:
		pass.Reportf(call, "shard error returned raw; convert it to a *shardFault (shardFail) inside the failover region")
		return
	}
	// Any other context (argument to another call, etc.) hides the
	// error from the seam.
	pass.Reportf(call, "shard call in a context that hides its error from the failover seam")
}

// parentOf returns the nearest non-paren ancestor of the node on top of
// the stack.
func parentOf(stack []ast.Node) ast.Node {
	for i := len(stack) - 2; i >= 0; i-- {
		if _, ok := stack[i].(*ast.ParenExpr); ok {
			continue
		}
		return stack[i]
	}
	return nil
}

func isNil(pass *lintkit.Pass, e ast.Expr) bool {
	tv, ok := pass.Pkg.Info.Types[e]
	return ok && tv.IsNil()
}

// boundErrVar returns the variable the call's error result is bound to
// in assign, or nil when it is bound to the blank identifier.
func boundErrVar(info *types.Info, assign *ast.AssignStmt, call *ast.CallExpr) *types.Var {
	var lhs ast.Expr
	if len(assign.Rhs) == 1 {
		// d, err := call — the error is the call's last result.
		lhs = assign.Lhs[len(assign.Lhs)-1]
	} else {
		for i, r := range assign.Rhs {
			if ast.Unparen(r) == call && i < len(assign.Lhs) {
				lhs = assign.Lhs[i]
			}
		}
	}
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v
	}
	v, _ := info.Uses[id].(*types.Var)
	return v
}

// routedInFunc reports whether obj is used as an argument to a fault
// router (shardFail/poison) or inside a shardFault composite literal
// anywhere in body.
func routedInFunc(info *types.Info, body *ast.BlockStmt, obj *types.Var) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			if routers[calleeName(x)] && usesVar(info, x.Args, obj) {
				found = true
			}
		case *ast.CompositeLit:
			tv, ok := info.Types[x]
			if ok && lintkit.NamedIs(tv.Type, "internal/partition", "shardFault") && usesVar(info, x.Elts, obj) {
				found = true
			}
		}
		return !found
	})
	return found
}

// returnedInFunc reports whether obj appears inside any return
// statement of body.
func returnedInFunc(info *types.Info, body *ast.BlockStmt, obj *types.Var) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if ret, ok := n.(*ast.ReturnStmt); ok {
			for _, r := range ret.Results {
				if usesVar(info, []ast.Expr{r}, obj) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

func usesVar(info *types.Info, exprs []ast.Expr, obj *types.Var) bool {
	for _, e := range exprs {
		used := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
				used = true
			}
			return !used
		})
		if used {
			return true
		}
	}
	return false
}
