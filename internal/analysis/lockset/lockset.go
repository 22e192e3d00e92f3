// Package lockset computes intraprocedural lock-set summaries for
// one package: which sync.Mutex/sync.RWMutex-typed values are held at
// each statement, propagated through direct intra-package calls. It
// is the shared substrate of the concurrency-safety analyzers
// (lockorder, guardedby, goroleak) driven by cmd/tintvet.
//
// Lock identity is type-based, not instance-based: the lock acquired
// by `s.clientMu.Lock()` is keyed "Server.clientMu" — the declared
// type of the selector's base plus the field name — so summaries compose
// across functions without variable renaming, at the cost of
// conflating distinct instances of one struct type. Index
// expressions collapse: `sh.stripes[i].Lock()` keys as
// "shard.stripes", treating a whole stripe array as one lock node,
// which matches how the repo reasons about stripe discipline ("never
// hold two stripes"). A local alias (`mu := &sh.stripes[b%n]`)
// resolves to the aliased key. Package-level and local mutexes key by
// name (position-qualified for locals).
//
// The flow model is deliberately simple (DESIGN.md Sec. 12): lock
// sets flow linearly through statement lists and into nested blocks;
// a lock acquired inside a branch does not survive past the branch,
// and `defer mu.Unlock()` leaves mu held for the rest of the
// function. That is a must-hold approximation for straight-line
// locking — the only idiom the repo permits — complemented by two
// entry-set fixed points over the direct intra-package call graph:
// EntryMay (union over call paths, for lockorder edge sources and
// goroleak hazards) and EntryMust (intersection, for guardedby).
// Goroutine spawns contribute no entry locks: the spawning
// goroutine's locks are never held by the new one.
package lockset

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Set is a set of lock keys.
type Set map[string]bool

// Clone returns an independent copy of s.
func (s Set) Clone() Set {
	out := make(Set, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

// Union returns a fresh set holding s ∪ t.
func (s Set) Union(t Set) Set {
	out := s.Clone()
	for k := range t {
		out[k] = true
	}
	return out
}

// Sorted returns the keys in sorted order, for deterministic
// diagnostics.
func (s Set) Sorted() []string {
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// LockEvent is one Lock()/RLock() call observed during the walk.
type LockEvent struct {
	Key  string
	Pos  token.Pos
	Held Set // locks already held locally when this Lock executes
	// DeferredUnlock/PlainUnlock report whether the function contains
	// a matching `defer x.Unlock()` or plain `x.Unlock()` anywhere —
	// the release-discipline signal lockorder checks.
	DeferredUnlock bool
	PlainUnlock    bool
}

// BlockEvent is one potentially-blocking operation — channel send,
// channel receive (including range-over-channel), select without a
// default case, or sync.WaitGroup.Wait — with the locks held locally
// at that point.
type BlockEvent struct {
	Pos  token.Pos
	What string
	Held Set
}

// Access is one read or write of a struct field, with the locks held
// locally at that point. guardedby filters these against its
// annotations.
type Access struct {
	Field *types.Var
	Pos   token.Pos
	Held  Set
	Write bool
}

// Call is one direct intra-package call site (or named-function
// goroutine spawn, with Go set).
type Call struct {
	Callee *types.Func
	Pos    token.Pos
	Held   Set
	Go     bool
}

// GoSpawn is one `go` statement. Exactly one of Body (literal spawn,
// summarized separately) and Callee (named same-package function) is
// set when the spawned function is visible; both are nil for spawns
// of imported functions.
type GoSpawn struct {
	Stmt   *ast.GoStmt
	Held   Set
	Body   *FuncSummary
	Callee *types.Func
}

// FuncSummary is the per-function result of the walk. Function
// literals (including goroutine bodies) are separate summaries.
type FuncSummary struct {
	Obj      *types.Func // nil for function literals
	Name     string      // "(*shard).serveMiss", "func@shard.go:292", ...
	Node     ast.Node    // *ast.FuncDecl or *ast.FuncLit
	Locks    []*LockEvent
	Blocks   []BlockEvent
	Accesses []Access
	Calls    []Call
	Gos      []GoSpawn
	// WaitGroupAdd/WaitGroupDone report a sync.WaitGroup Add/Done
	// call anywhere in the function — goroleak's tracking signals.
	WaitGroupAdd  bool
	WaitGroupDone bool
}

// Summaries holds every function summary of one package plus the
// entry-set fixed points.
type Summaries struct {
	Funcs []*FuncSummary

	byObj     map[*types.Func]*FuncSummary
	entryMay  map[*FuncSummary]Set
	entryMust map[*FuncSummary]Set
}

// ForPackage walks every function in files and returns the package's
// summaries with entry sets computed.
func ForPackage(fset *token.FileSet, files []*ast.File, pkg *types.Package, tinfo *types.Info) *Summaries {
	s := &Summaries{byObj: map[*types.Func]*FuncSummary{}}
	w := &walker{fset: fset, pkg: pkg, tinfo: tinfo}
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Body == nil {
					continue
				}
				sum := &FuncSummary{Node: d, Name: declName(d)}
				if obj, ok := tinfo.Defs[d.Name].(*types.Func); ok {
					sum.Obj = obj
					s.byObj[obj] = sum
				}
				w.walkFunc(sum, d.Body)
				s.Funcs = append(s.Funcs, sum)
			case *ast.GenDecl:
				// Package-level var initializers may hold literals.
				ast.Inspect(d, func(n ast.Node) bool {
					if lit, ok := n.(*ast.FuncLit); ok {
						sum := &FuncSummary{Node: lit, Name: litName(fset, lit)}
						w.walkFunc(sum, lit.Body)
						s.Funcs = append(s.Funcs, sum)
						return false
					}
					return true
				})
			}
		}
		s.Funcs = append(s.Funcs, w.lits...)
		w.lits = nil
	}
	s.computeEntrySets()
	return s
}

// Summary returns the summary for a declared function or method, or
// nil for functions outside the package.
func (s *Summaries) Summary(obj *types.Func) *FuncSummary { return s.byObj[obj] }

// EntryMay returns locks that may be held on entry to fn via some
// chain of direct intra-package calls (union over call paths).
func (s *Summaries) EntryMay(fn *FuncSummary) Set { return s.entryMay[fn] }

// EntryMust returns locks held on every direct intra-package call
// path into fn (empty for entry points and mixed call contexts).
func (s *Summaries) EntryMust(fn *FuncSummary) Set { return s.entryMust[fn] }

func (s *Summaries) computeEntrySets() {
	s.entryMay = map[*FuncSummary]Set{}
	s.entryMust = map[*FuncSummary]Set{}
	for _, f := range s.Funcs {
		s.entryMay[f] = Set{}
	}
	// May: union propagation to a fixed point; the per-package graph
	// is small, so naive iteration converges quickly.
	for changed := true; changed; {
		changed = false
		for _, f := range s.Funcs {
			for _, c := range f.Calls {
				callee := s.byObj[c.Callee]
				if callee == nil || c.Go {
					continue
				}
				tgt := s.entryMay[callee]
				for k := range c.Held.Union(s.entryMay[f]) {
					if !tgt[k] {
						tgt[k] = true
						changed = true
					}
				}
			}
		}
	}
	// Must: per-callee intersection over call sites, iterated a
	// bounded number of rounds so multi-hop chains settle. Functions
	// with no intra-package callers (entry points) stay empty.
	type edge struct {
		caller *FuncSummary
		call   Call
	}
	callers := map[*FuncSummary][]edge{}
	for _, f := range s.Funcs {
		for _, c := range f.Calls {
			if callee := s.byObj[c.Callee]; callee != nil {
				callers[callee] = append(callers[callee], edge{f, c})
			}
		}
	}
	must := map[*FuncSummary]Set{}
	for _, f := range s.Funcs {
		must[f] = Set{}
	}
	for round := 0; round <= len(s.Funcs); round++ {
		for _, f := range s.Funcs {
			sites := callers[f]
			if len(sites) == 0 {
				continue
			}
			var inter Set
			for _, e := range sites {
				site := Set{}
				if !e.call.Go {
					site = e.call.Held.Union(must[e.caller])
				}
				if inter == nil {
					inter = site
				} else {
					for k := range inter {
						if !site[k] {
							delete(inter, k)
						}
					}
				}
			}
			must[f] = inter
		}
	}
	for _, f := range s.Funcs {
		s.entryMust[f] = must[f]
	}
}

// ---------------------------------------------------------------------------
// Walk

type walker struct {
	fset  *token.FileSet
	pkg   *types.Package
	tinfo *types.Info
	// alias maps a local variable to the lock key it aliases
	// (`mu := &sh.stripes[i]`); reset per function.
	alias map[types.Object]string
	// lits accumulates nested function-literal summaries.
	lits []*FuncSummary
}

func (w *walker) walkFunc(sum *FuncSummary, body *ast.BlockStmt) {
	saved := w.alias
	w.alias = map[types.Object]string{}
	w.walkStmts(sum, body.List, Set{})
	w.alias = saved
}

func (w *walker) walkStmts(sum *FuncSummary, stmts []ast.Stmt, held Set) {
	for _, st := range stmts {
		w.walkStmt(sum, st, held)
	}
}

func (w *walker) walkStmt(sum *FuncSummary, st ast.Stmt, held Set) {
	switch st := st.(type) {
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if key, kind := w.lockCall(call); key != "" {
				switch kind {
				case "Lock", "RLock":
					sum.Locks = append(sum.Locks, &LockEvent{Key: key, Pos: call.Pos(), Held: held.Clone()})
					held[key] = true
				case "Unlock", "RUnlock":
					w.markUnlock(sum, key, false)
					delete(held, key)
				}
				return
			}
		}
		w.walkExpr(sum, st.X, held)
	case *ast.DeferStmt:
		if key, kind := w.lockCall(st.Call); key != "" && (kind == "Unlock" || kind == "RUnlock") {
			// The lock stays held for the rest of the function.
			w.markUnlock(sum, key, true)
			return
		}
		w.walkExpr(sum, st.Call, held)
	case *ast.GoStmt:
		w.recordGo(sum, st, held)
	case *ast.SendStmt:
		sum.Blocks = append(sum.Blocks, BlockEvent{Pos: st.Pos(), What: "channel send", Held: held.Clone()})
		w.walkExpr(sum, st.Chan, held)
		w.walkExpr(sum, st.Value, held)
	case *ast.AssignStmt:
		w.recordAlias(st)
		for _, e := range st.Rhs {
			w.walkExpr(sum, e, held)
		}
		for _, e := range st.Lhs {
			w.walkLHS(sum, e, held)
		}
	case *ast.IncDecStmt:
		w.walkLHS(sum, st.X, held)
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			w.walkExpr(sum, e, held)
		}
	case *ast.IfStmt:
		if st.Init != nil {
			w.walkStmt(sum, st.Init, held)
		}
		w.walkExpr(sum, st.Cond, held)
		w.walkStmts(sum, st.Body.List, held.Clone())
		if st.Else != nil {
			w.walkStmt(sum, st.Else, held.Clone())
		}
	case *ast.ForStmt:
		if st.Init != nil {
			w.walkStmt(sum, st.Init, held)
		}
		if st.Cond != nil {
			w.walkExpr(sum, st.Cond, held)
		}
		body := held.Clone()
		w.walkStmts(sum, st.Body.List, body)
		if st.Post != nil {
			w.walkStmt(sum, st.Post, body)
		}
	case *ast.RangeStmt:
		if tv, ok := w.tinfo.Types[st.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				sum.Blocks = append(sum.Blocks, BlockEvent{Pos: st.Pos(), What: "channel receive", Held: held.Clone()})
			}
		}
		w.walkExpr(sum, st.X, held)
		w.walkStmts(sum, st.Body.List, held.Clone())
	case *ast.SwitchStmt:
		if st.Init != nil {
			w.walkStmt(sum, st.Init, held)
		}
		if st.Tag != nil {
			w.walkExpr(sum, st.Tag, held)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					w.walkExpr(sum, e, held)
				}
				w.walkStmts(sum, cc.Body, held.Clone())
			}
		}
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			w.walkStmt(sum, st.Init, held)
		}
		w.walkStmt(sum, st.Assign, held)
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.walkStmts(sum, cc.Body, held.Clone())
			}
		}
	case *ast.SelectStmt:
		if !selectHasDefault(st) {
			sum.Blocks = append(sum.Blocks, BlockEvent{Pos: st.Pos(), What: "select", Held: held.Clone()})
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				if cc.Comm != nil {
					w.walkCommOp(sum, cc.Comm, held)
				}
				w.walkStmts(sum, cc.Body, held.Clone())
			}
		}
	case *ast.BlockStmt:
		w.walkStmts(sum, st.List, held.Clone())
	case *ast.LabeledStmt:
		w.walkStmt(sum, st.Stmt, held)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.walkExpr(sum, v, held)
					}
				}
			}
		}
	}
}

// recordAlias notes `mu := &<lockable>` so a later mu.Lock() resolves
// to the aliased key (the striped-lock idiom).
func (w *walker) recordAlias(st *ast.AssignStmt) {
	if len(st.Lhs) != 1 || len(st.Rhs) != 1 {
		return
	}
	id, ok := st.Lhs[0].(*ast.Ident)
	if !ok {
		return
	}
	obj := w.tinfo.Defs[id]
	if obj == nil {
		obj = w.tinfo.Uses[id]
	}
	if obj == nil {
		return
	}
	if tv, ok := w.tinfo.Types[st.Rhs[0]]; !ok || !isMutexType(tv.Type) {
		return
	}
	if key := w.keyOf(st.Rhs[0]); key != "" {
		w.alias[obj] = key
	}
}

// walkCommOp walks a select case's comm operation without recording
// it as a standalone blocking event — the enclosing select already
// is one.
func (w *walker) walkCommOp(sum *FuncSummary, st ast.Stmt, held Set) {
	switch st := st.(type) {
	case *ast.SendStmt:
		w.walkExpr(sum, st.Chan, held)
		w.walkExpr(sum, st.Value, held)
	case *ast.ExprStmt:
		if u, ok := st.X.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			w.walkExpr(sum, u.X, held)
			return
		}
		w.walkExpr(sum, st.X, held)
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				w.walkExpr(sum, u.X, held)
				continue
			}
			w.walkExpr(sum, e, held)
		}
		for _, e := range st.Lhs {
			w.walkLHS(sum, e, held)
		}
	}
}

func (w *walker) walkExpr(sum *FuncSummary, e ast.Expr, held Set) {
	switch e := e.(type) {
	case nil:
		return
	case *ast.SelectorExpr:
		w.recordAccess(sum, e, held, false)
		w.walkExpr(sum, e.X, held)
	case *ast.CallExpr:
		w.recordCall(sum, e, held)
		switch {
		case isWaitGroupCall(w.tinfo, e, "Wait"):
			sum.Blocks = append(sum.Blocks, BlockEvent{Pos: e.Pos(), What: "WaitGroup.Wait", Held: held.Clone()})
		case isWaitGroupCall(w.tinfo, e, "Add"):
			sum.WaitGroupAdd = true
		case isWaitGroupCall(w.tinfo, e, "Done"):
			sum.WaitGroupDone = true
		}
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
			w.walkExpr(sum, sel.X, held)
		} else {
			w.walkExpr(sum, e.Fun, held)
		}
		for _, a := range e.Args {
			w.walkExpr(sum, a, held)
		}
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			sum.Blocks = append(sum.Blocks, BlockEvent{Pos: e.Pos(), What: "channel receive", Held: held.Clone()})
		}
		w.walkExpr(sum, e.X, held)
	case *ast.BinaryExpr:
		w.walkExpr(sum, e.X, held)
		w.walkExpr(sum, e.Y, held)
	case *ast.ParenExpr:
		w.walkExpr(sum, e.X, held)
	case *ast.StarExpr:
		w.walkExpr(sum, e.X, held)
	case *ast.IndexExpr:
		w.walkExpr(sum, e.X, held)
		w.walkExpr(sum, e.Index, held)
	case *ast.SliceExpr:
		w.walkExpr(sum, e.X, held)
		w.walkExpr(sum, e.Low, held)
		w.walkExpr(sum, e.High, held)
		w.walkExpr(sum, e.Max, held)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				w.walkExpr(sum, kv.Value, held)
				continue
			}
			w.walkExpr(sum, el, held)
		}
	case *ast.KeyValueExpr:
		w.walkExpr(sum, e.Value, held)
	case *ast.TypeAssertExpr:
		w.walkExpr(sum, e.X, held)
	case *ast.FuncLit:
		// A literal invoked later runs in its own lock context;
		// summarize it separately with an empty entry set.
		lit := &FuncSummary{Node: e, Name: litName(w.fset, e)}
		w.walkFunc(lit, e.Body)
		w.lits = append(w.lits, lit)
	}
}

func (w *walker) walkLHS(sum *FuncSummary, e ast.Expr, held Set) {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		w.recordAccess(sum, e, held, true)
		w.walkExpr(sum, e.X, held)
	case *ast.IndexExpr:
		// sh.lists[b] = ... writes the field through an index; the
		// write subsumes the read the plain walk would record.
		if sel, ok := e.X.(*ast.SelectorExpr); ok {
			w.recordAccess(sum, sel, held, true)
			w.walkExpr(sum, sel.X, held)
		} else {
			w.walkExpr(sum, e.X, held)
		}
		w.walkExpr(sum, e.Index, held)
	case *ast.StarExpr:
		w.walkExpr(sum, e.X, held)
	default:
		w.walkExpr(sum, e, held)
	}
}

func (w *walker) recordAccess(sum *FuncSummary, sel *ast.SelectorExpr, held Set, write bool) {
	s, ok := w.tinfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return
	}
	v, ok := s.Obj().(*types.Var)
	if !ok {
		return
	}
	sum.Accesses = append(sum.Accesses, Access{Field: v, Pos: sel.Sel.Pos(), Held: held.Clone(), Write: write})
}

func (w *walker) recordCall(sum *FuncSummary, call *ast.CallExpr, held Set) {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = w.tinfo.Uses[fun]
	case *ast.SelectorExpr:
		obj = w.tinfo.Uses[fun.Sel]
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg() != w.pkg {
		return
	}
	sum.Calls = append(sum.Calls, Call{Callee: fn, Pos: call.Pos(), Held: held.Clone()})
}

func (w *walker) recordGo(sum *FuncSummary, st *ast.GoStmt, held Set) {
	spawn := GoSpawn{Stmt: st, Held: held.Clone()}
	switch fun := st.Call.Fun.(type) {
	case *ast.FuncLit:
		lit := &FuncSummary{Node: fun, Name: litName(w.fset, fun)}
		w.walkFunc(lit, fun.Body)
		w.lits = append(w.lits, lit)
		spawn.Body = lit
	case *ast.Ident:
		if fn, ok := w.tinfo.Uses[fun].(*types.Func); ok && fn.Pkg() == w.pkg {
			sum.Calls = append(sum.Calls, Call{Callee: fn, Pos: st.Pos(), Held: held.Clone(), Go: true})
			spawn.Callee = fn
		}
	case *ast.SelectorExpr:
		if fn, ok := w.tinfo.Uses[fun.Sel].(*types.Func); ok && fn.Pkg() == w.pkg {
			sum.Calls = append(sum.Calls, Call{Callee: fn, Pos: st.Pos(), Held: held.Clone(), Go: true})
			spawn.Callee = fn
		}
	}
	sum.Gos = append(sum.Gos, spawn)
	for _, a := range st.Call.Args {
		w.walkExpr(sum, a, held)
	}
}

// lockCall classifies a call as a mutex operation, returning the lock
// key and the method name, or "", "".
func (w *walker) lockCall(call *ast.CallExpr) (key, kind string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", ""
	}
	if tv, ok := w.tinfo.Types[sel.X]; ok && isMutexType(tv.Type) {
		if k := w.keyOf(sel.X); k != "" {
			return k, sel.Sel.Name
		}
		return "", ""
	}
	// Promoted method of an embedded mutex: `e.Lock()` where the
	// struct embeds sync.Mutex. Key by owner type plus the embedded
	// field path ("embedded.Mutex"), matching FieldKey.
	if s, ok := w.tinfo.Selections[sel]; ok && s.Kind() == types.MethodVal {
		owner := namedOwner(s.Recv())
		path, mutex := embeddedMutexPath(s)
		if owner != "" && mutex {
			return owner + "." + path, sel.Sel.Name
		}
	}
	return "", ""
}

// embeddedMutexPath resolves a method selection's embedded field
// chain and reports whether it lands on a mutex ("Mutex", true for
// a struct embedding sync.Mutex).
func embeddedMutexPath(s *types.Selection) (string, bool) {
	t := s.Recv()
	idx := s.Index()
	if len(idx) < 2 { // no embedded hop: a method declared on Recv itself
		return "", false
	}
	var names []string
	for _, i := range idx[:len(idx)-1] {
		for {
			p, ok := t.(*types.Pointer)
			if !ok {
				break
			}
			t = p.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok || i >= st.NumFields() {
			return "", false
		}
		f := st.Field(i)
		names = append(names, f.Name())
		t = f.Type()
	}
	return strings.Join(names, "."), isMutexType(t)
}

// markUnlock back-annotates every LockEvent for key with the kind of
// release observed in the same function.
func (w *walker) markUnlock(sum *FuncSummary, key string, deferred bool) {
	for _, ev := range sum.Locks {
		if ev.Key == key {
			if deferred {
				ev.DeferredUnlock = true
			} else {
				ev.PlainUnlock = true
			}
		}
	}
}

// keyOf derives the type-based lock key of a mutex-valued expression.
func (w *walker) keyOf(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return w.keyOf(e.X)
	case *ast.StarExpr:
		return w.keyOf(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return w.keyOf(e.X)
		}
	case *ast.IndexExpr:
		return w.keyOf(e.X) // collapse stripe arrays to one node
	case *ast.SelectorExpr:
		if s, ok := w.tinfo.Selections[e]; ok && s.Kind() == types.FieldVal {
			if owner := namedOwner(s.Recv()); owner != "" {
				return owner + "." + e.Sel.Name
			}
		}
		if base := w.keyOf(e.X); base != "" {
			return base + "." + e.Sel.Name
		}
	case *ast.Ident:
		obj := w.tinfo.Uses[e]
		if obj == nil {
			obj = w.tinfo.Defs[e]
		}
		if obj == nil {
			return ""
		}
		if k, ok := w.alias[obj]; ok {
			return k
		}
		if v, ok := obj.(*types.Var); ok {
			if v.Parent() != nil && v.Parent().Parent() == types.Universe {
				return "pkg." + v.Name() // package-level mutex
			}
			pos := w.fset.Position(v.Pos())
			return fmt.Sprintf("local.%s@%s:%d", v.Name(), shortFile(pos.Filename), pos.Line)
		}
	}
	return ""
}

// FieldKey returns the lock key guardedby must require for a
// guard-mutex field named mutexField on struct type typeName — the
// same key the walk derives for `x.<mutexField>.Lock()` on a value of
// that type.
func FieldKey(typeName, mutexField string) string {
	return typeName + "." + mutexField
}

// namedOwner names the (possibly pointed-to) named struct type, or "".
func namedOwner(t types.Type) string {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt.Obj().Name()
		default:
			return ""
		}
	}
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex,
// through pointers.
func isMutexType(t types.Type) bool {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// IsMutexFieldType reports whether a struct field type can guard:
// sync.Mutex/sync.RWMutex, a pointer to one, or a slice/array of
// them (a stripe set, collapsed to one lock node).
func IsMutexFieldType(t types.Type) bool {
	switch tt := t.Underlying().(type) {
	case *types.Slice:
		return isMutexType(tt.Elem())
	case *types.Array:
		return isMutexType(tt.Elem())
	}
	return isMutexType(t)
}

func isWaitGroupCall(tinfo *types.Info, call *ast.CallExpr, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	tv, ok := tinfo.Types[sel.X]
	if !ok {
		return false
	}
	t := tv.Type
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync" && n.Obj().Name() == "WaitGroup"
}

func selectHasDefault(st *ast.SelectStmt) bool {
	for _, c := range st.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

func declName(fn *ast.FuncDecl) string {
	if fn.Recv != nil && len(fn.Recv.List) > 0 {
		return fmt.Sprintf("(%s).%s", typeText(fn.Recv.List[0].Type), fn.Name.Name)
	}
	return fn.Name.Name
}

func typeText(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return "*" + typeText(e.X)
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr: // generic receiver
		return typeText(e.X)
	}
	return "?"
}

func litName(fset *token.FileSet, fn *ast.FuncLit) string {
	pos := fset.Position(fn.Pos())
	return fmt.Sprintf("func@%s:%d", shortFile(pos.Filename), pos.Line)
}

func shortFile(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
