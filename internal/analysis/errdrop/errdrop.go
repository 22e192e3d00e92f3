// Package errdrop flags discarded errors from allocator APIs. The
// failure paths of Mmap/Malloc/Alloc and friends encode the paper's
// semantics — ErrNoMemory means the degradation ladder found no free
// frame anywhere, buddy exhaustion drives the fallback story — so
// silently dropping those errors hides exactly the conditions the
// reproduction is supposed to surface.
package errdrop

import (
	"go/ast"
	"go/types"

	"github.com/tintmalloc/tintmalloc/internal/analysis"
)

// Analyzer reports allocator-API calls whose error result is
// discarded, either by using the call as a statement or by assigning
// the error to the blank identifier.
var Analyzer = &analysis.Analyzer{
	Name: "errdrop",
	Doc: "flag discarded errors from allocator APIs (Alloc, Malloc, " +
		"Mmap, Free, Migrate, ...): their failure paths encode the " +
		"paper's fallback semantics",
	Run: run,
}

// allocNames are the allocator entry points across the stack: buddy
// (Alloc/Free), kernel (AllocPages/FreePages/Mmap/Munmap/Migrate/
// Translate), heap (Malloc/Calloc/Realloc/Free/Trim).
var allocNames = map[string]bool{
	"Alloc": true, "AllocPages": true, "FreePages": true,
	"Malloc": true, "Calloc": true, "Realloc": true, "Free": true,
	"Trim": true, "Mmap": true, "Munmap": true, "Migrate": true,
	"Translate": true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					if name, pos := allocCallWithError(pass, call); pos >= 0 {
						pass.Reportf(call.Pos(),
							"result error of %s is discarded; allocator failures encode TintMalloc fallback semantics and must be handled or explicitly ignored",
							name)
					}
				}
			case *ast.DeferStmt:
				if name, pos := allocCallWithError(pass, n.Call); pos >= 0 {
					pass.Reportf(n.Call.Pos(),
						"deferred %s discards its error result; wrap it to handle the error", name)
				}
			case *ast.GoStmt:
				if name, pos := allocCallWithError(pass, n.Call); pos >= 0 {
					pass.Reportf(n.Call.Pos(),
						"go %s discards its error result; wrap it to handle the error", name)
				}
			case *ast.AssignStmt:
				checkAssign(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkAssign flags `x, _ := t.Mmap(...)`-style assignments where the
// error position of an allocator call lands on the blank identifier.
func checkAssign(pass *analysis.Pass, as *ast.AssignStmt) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	name, errPos := allocCallWithError(pass, call)
	if errPos < 0 || errPos >= len(as.Lhs) {
		return
	}
	if id, ok := as.Lhs[errPos].(*ast.Ident); ok && id.Name == "_" {
		pass.Reportf(id.Pos(),
			"error result of %s assigned to blank identifier; allocator failures encode TintMalloc fallback semantics and must be handled or explicitly ignored",
			name)
	}
}

// allocCallWithError reports the callee name and the index of the
// error result when call targets an allocator API returning an
// error; pos is -1 otherwise.
func allocCallWithError(pass *analysis.Pass, call *ast.CallExpr) (name string, pos int) {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return "", -1
	}
	if !allocNames[id.Name] {
		return "", -1
	}
	obj, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok {
		return "", -1
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return "", -1
	}
	errType := types.Universe.Lookup("error").Type()
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if types.Identical(res.At(i).Type(), errType) {
			return id.Name, i
		}
	}
	return "", -1
}
