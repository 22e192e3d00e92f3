// Package guardedby turns "this mutex guards that field" comments
// into machine-checked contracts. A struct field annotated
//
//	clients map[int]*Client //tintvet:guardedby clientMu
//
// (or with the directive on its own line above the field) may only be
// read or written while the named sibling mutex is held. The check is
// interprocedural within the package: a helper that touches the field
// is clean if every direct intra-package call path into it holds the
// guard (lockset.EntryMust), so the `fooLocked()` idiom needs no
// annotation of its own.
//
// The guard must be a sibling field of type sync.Mutex, sync.RWMutex,
// a pointer to one, or a slice/array of mutexes (a stripe set,
// collapsed to one lock node exactly as the lockset walk collapses
// `stripes[i].Lock()`). Malformed annotations — naming a missing
// sibling or a non-mutex field, or annotating a field of an unnamed
// struct type — are themselves diagnostics: a contract that cannot be
// checked must not look like one that is.
package guardedby

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/tintmalloc/tintmalloc/internal/analysis"
	"github.com/tintmalloc/tintmalloc/internal/analysis/lockset"
)

// Directive is the field-annotation comment prefix.
const Directive = "tintvet:guardedby"

// Analyzer enforces //tintvet:guardedby field annotations.
var Analyzer = &analysis.Analyzer{
	Name: "guardedby",
	Doc: "a struct field annotated `//tintvet:guardedby <mutexfield>` may only " +
		"be accessed with the named sibling mutex held (checked through direct " +
		"intra-package calls); malformed annotations are flagged too",
	Run: run,
}

// guard is one parsed annotation: the guarded field object and the
// lock key that must be held at every access.
type guard struct {
	structName string
	mutexField string
	key        string
}

func run(pass *analysis.Pass) error {
	guards := collectGuards(pass)
	if len(guards) == 0 {
		return nil
	}
	sums := lockset.ForPackage(pass.Fset, pass.Files, pass.Pkg, pass.TypesInfo)
	for _, fn := range sums.Funcs {
		entry := sums.EntryMust(fn)
		for _, acc := range fn.Accesses {
			g, ok := guards[acc.Field]
			if !ok {
				continue
			}
			if acc.Held[g.key] || entry[g.key] {
				continue
			}
			verb := "read"
			if acc.Write {
				verb = "write"
			}
			held := "none"
			if hs := acc.Held.Union(entry).Sorted(); len(hs) > 0 {
				held = strings.Join(hs, ", ")
			}
			pass.Reportf(acc.Pos,
				"%s of %s.%s in %s without holding %s (guardedby %s; held: %s)",
				verb, g.structName, acc.Field.Name(), fn.Name, g.key, g.mutexField, held)
		}
	}
	return nil
}

// collectGuards parses every guardedby annotation in the package,
// reporting malformed ones, and returns the checkable contracts
// keyed by field object.
func collectGuards(pass *analysis.Pass) map[*types.Var]guard {
	out := map[*types.Var]guard{}
	for _, f := range pass.Files {
		// Line-indexed comments: a directive may sit on its own line
		// directly above the field instead of trailing it.
		lineComment := map[int]string{}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if arg, ok := directiveArg(c.Text); ok {
					lineComment[pass.Fset.Position(c.Pos()).Line] = arg
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			// Lines occupied by the fields themselves: a directive
			// trailing field A must not also attach to field B on the
			// next line through the line-above rule.
			fieldLines := map[int]bool{}
			for _, field := range st.Fields.List {
				for line := pass.Fset.Position(field.Pos()).Line; line <= pass.Fset.Position(field.End()).Line; line++ {
					fieldLines[line] = true
				}
			}
			for _, field := range st.Fields.List {
				arg, pos, ok := fieldDirective(pass, field, lineComment, fieldLines)
				if !ok {
					continue
				}
				if arg == "" {
					pass.Reportf(pos, "guardedby annotation names no mutex field; write //tintvet:guardedby <mutexfield>")
					continue
				}
				mutex := findField(st, arg)
				if mutex == nil {
					pass.Reportf(pos, "guardedby names %q, which is not a field of %s", arg, ts.Name.Name)
					continue
				}
				mtv, ok := pass.TypesInfo.Types[mutex.Type]
				if !ok || !lockset.IsMutexFieldType(mtv.Type) {
					pass.Reportf(pos, "guardedby guard %s.%s is not a sync.Mutex, sync.RWMutex, or slice/array of them", ts.Name.Name, arg)
					continue
				}
				for _, name := range field.Names {
					v, ok := pass.TypesInfo.Defs[name].(*types.Var)
					if !ok {
						continue
					}
					out[v] = guard{
						structName: ts.Name.Name,
						mutexField: arg,
						key:        lockset.FieldKey(ts.Name.Name, arg),
					}
				}
			}
			return true
		})
	}
	return out
}

// fieldDirective finds a guardedby directive attached to field: in
// its doc comment, its trailing comment, or on the line directly
// above it (unless that line holds another field, whose trailing
// directive must not leak downward).
func fieldDirective(pass *analysis.Pass, field *ast.Field, lineComment map[int]string, fieldLines map[int]bool) (arg string, pos token.Pos, ok bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if a, found := directiveArg(c.Text); found {
				return a, c.Pos(), true
			}
		}
	}
	line := pass.Fset.Position(field.Pos()).Line
	if a, found := lineComment[line-1]; found && !fieldLines[line-1] {
		return a, field.Pos(), true
	}
	return "", 0, false
}

// directiveArg extracts the mutex-field argument from a comment, if
// the comment is a guardedby directive.
func directiveArg(text string) (string, bool) {
	t := strings.TrimSpace(strings.TrimPrefix(text, "//"))
	if !strings.HasPrefix(t, Directive) {
		return "", false
	}
	rest := strings.TrimSpace(strings.TrimPrefix(t, Directive))
	// Fixtures append `// want "..."` inside the same comment token;
	// anything after an embedded // is not part of the directive.
	if i := strings.Index(rest, "//"); i >= 0 {
		rest = strings.TrimSpace(rest[:i])
	}
	if fields := strings.Fields(rest); len(fields) > 0 {
		return fields[0], true
	}
	return "", true
}

// findField returns the struct field named name, or nil.
func findField(st *ast.StructType, name string) *ast.Field {
	for _, field := range st.Fields.List {
		for _, n := range field.Names {
			if n.Name == name {
				return field
			}
		}
		// Embedded guard (`sync.Mutex`): match the type's base name.
		if len(field.Names) == 0 {
			if base := embeddedName(field.Type); base == name {
				return field
			}
		}
	}
	return nil
}

func embeddedName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.StarExpr:
		return embeddedName(e.X)
	}
	return ""
}
