package solverlint

import (
	"go/ast"
	"go/types"
)

// SyncMisuse catches the classic sync-primitive misuse patterns that
// compile fine and usually even pass tests:
//
//   - WaitGroup.Add inside the goroutine it accounts for: the spawn
//     races with Wait, so Wait can return before the goroutine was
//     ever counted. Add belongs on the spawning side, before the go
//     statement.
//   - WaitGroup.Done on a wait group that no code in the package ever
//     Adds to: the counter goes negative and panics at runtime, or the
//     Done is dead ceremony.
//
// sync values copied by value are go vet's copylocks check, which
// make lint and CI already run, so this analyzer does not repeat it.
var SyncMisuse = &Analyzer{
	Name: "syncmisuse",
	Doc:  "no WaitGroup.Add inside the spawned goroutine, no Done without a package-visible Add (by-value sync copies are go vet's copylocks)",
	Run:  runSyncMisuse,
}

func runSyncMisuse(pass *Pass) error {
	adds := map[*types.Var]bool{}
	var dones []struct {
		v    *types.Var
		call *ast.CallExpr
		name string
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				checkAddInGoroutine(pass, n)
			case *ast.CallExpr:
				recv, method := waitGroupCall(pass, n)
				if recv == nil {
					return true
				}
				switch method {
				case "Add":
					adds[recv] = true
				case "Done":
					dones = append(dones, struct {
						v    *types.Var
						call *ast.CallExpr
						name string
					}{recv, n, waitGroupRecvName(n)})
				}
			}
			return true
		})
	}
	for _, d := range dones {
		if !adds[d.v] {
			pass.Reportf(d.call.Pos(),
				"WaitGroup.Done on %s, but nothing in this package ever calls Add on it: the counter underflows and panics (or the Done is dead)",
				d.name)
		}
	}
	return nil
}

// checkAddInGoroutine flags wg.Add calls inside a go-spawned literal
// when the wait group is declared outside the literal (an inner wait
// group fully owned by the goroutine is fine).
func checkAddInGoroutine(pass *Pass, g *ast.GoStmt) {
	lit, ok := g.Call.Fun.(*ast.FuncLit)
	if !ok {
		return
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, method := waitGroupCall(pass, call)
		if recv == nil || method != "Add" {
			return true
		}
		// Declared inside the literal: the goroutine owns it.
		if recv.Pos() >= lit.Pos() && recv.Pos() <= lit.End() {
			return true
		}
		pass.Reportf(call.Pos(),
			"WaitGroup.Add inside the spawned goroutine races with Wait: a Wait that runs before this goroutine is scheduled returns early (call Add before the go statement)")
		return true
	})
}

// waitGroupCall matches <recv>.Add/Done/Wait(...) on a sync.WaitGroup
// receiver and resolves the receiver variable (the addressed field for
// selector chains, the object for identifiers).
func waitGroupCall(pass *Pass, call *ast.CallExpr) (*types.Var, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	method := sel.Sel.Name
	if method != "Add" && method != "Done" && method != "Wait" {
		return nil, ""
	}
	t := pass.TypeOf(sel.X)
	if t == nil || !isNamedSyncType(t, "WaitGroup") {
		return nil, ""
	}
	return referencedVar(pass, sel.X), method
}

func waitGroupRecvName(call *ast.CallExpr) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		return types.ExprString(sel.X)
	}
	return "wait group"
}

// isNamedSyncType reports whether t is (a pointer to) a named type
// with the given sync type name.
func isNamedSyncType(t types.Type, name string) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == name
}
