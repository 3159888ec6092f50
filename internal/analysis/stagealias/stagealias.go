// Package stagealias flags state that leaks between sibling stage functors
// of one nest alternative. The drain protocol's no-migration guarantee
// (DESIGN.md) rests on each in-flight item being owned by exactly one stage
// at a time, with ownership handed off through the inter-stage queues. A
// functor that mutates a variable its sibling also captures, or that sends
// the same captured reference down the queue on every iteration, aliases
// state across stages: after a reconfiguration drain the "drained" item is
// still reachable — and mutable — from a stage that was supposed to have
// given it up.
//
// Two rules, both scoped to the functors of one alternative — the FuncLits
// and method values installed as the Fn of core.StageFns or dope.PipeStage
// values inside one enclosing function body:
//
//   - shared written capture: a variable declared outside the functors,
//     captured by two or more of them, and written by at least one. Channels,
//     queue.Queues, and sync and sync/atomic types are exempt — those are
//     the sanctioned coordination points.
//
//   - captured-reference send: a functor sends (ch <- x) or enqueues
//     (q.Enqueue(x)) a captured pointer-, slice-, or map-typed variable on a
//     conduit a sibling functor receives from. Every iteration forwards the
//     same reference, so the stages alias one object instead of handing off
//     per-item values. Values produced inside the functor (dequeued,
//     received, or allocated locally) are the sanctioned handoff and are
//     never flagged.
//
// A pointer-receiver method value (Fn: r.produce) is a capture of r in
// disguise: the bound method aliases the receiver, so its receiver-field
// accesses count as captures of the site variable at the same field
// granularity as literal functors. Sibling methods on one receiver that
// touch disjoint fields keep disjoint state and are not flagged; a
// value-receiver method value copies the receiver when it is bound and
// shares nothing.
//
// Helper-method calls keep that granularity instead of widening it: a
// functor calling c.bump() on a captured receiver folds bump's
// receiver-field reads and writes at the call site — when the callee is a
// pointer-receiver method whose body is in the package — so the write to
// c.n inside the helper conflicts with a sibling's read of c.n, while a
// helper touching a disjoint field stays quiet. A value-receiver call or a
// body out of reach falls back to a whole-variable (read-only) capture.
package stagealias

import (
	"go/ast"
	"go/token"
	"go/types"

	"dope/internal/analysis/framework"
	"dope/internal/analysis/protocol"
)

var Analyzer = &framework.Analyzer{
	Name: "stagealias",
	Doc: "check that sibling stage functors share no written captures and " +
		"hand items off by value: aliased state defeats the drain " +
		"protocol's no-migration guarantee",
	Run: run,
}

// queuePath is the import path of the sanctioned inter-stage queue.
const queuePath = "dope/internal/queue"

// access identifies what a functor touched at field granularity: a whole
// captured variable (field == nil), or one direct field of it (v.field and
// deeper paths rooted there). Two siblings sharing one receiver-like struct
// but touching distinct fields do not alias each other's state, so the
// shared-write rule compares accesses, not just root variables.
type access struct {
	v     *types.Var
	field *types.Var // nil: the variable as a whole
}

// conflicts reports whether the two accesses can alias: same root variable
// and overlapping field paths (a whole-variable access overlaps every
// field).
func (a access) conflicts(b access) bool {
	return a.v == b.v &&
		(a.field == nil || b.field == nil || a.field == b.field)
}

// name renders the access for diagnostics: "v" or "v.field".
func (a access) name() string {
	if a.field == nil {
		return a.v.Name()
	}
	return a.v.Name() + "." + a.field.Name()
}

// functor is one stage closure of an alternative, with the capture facts
// the two rules consume.
type functor struct {
	lit *ast.FuncLit
	// caps maps each captured access to its first use position.
	caps map[access]token.Pos
	// writes maps each captured access written (assigned, inc/dec'd, or
	// stored through) to the first write position.
	writes map[access]token.Pos
	// sends are the channel sends and queue enqueues whose payload root is
	// a variable.
	sends []send
	// recvs are the conduit variables this functor receives or dequeues
	// from.
	recvs map[*types.Var]bool
}

type send struct {
	conduit *types.Var
	value   *types.Var
	pos     token.Pos
}

// fnSite is one expression installed as a stage Fn: either a functor
// literal or a method value whose bound receiver lives at the site.
type fnSite struct {
	lit *ast.FuncLit      // literal functor, or
	sel *ast.SelectorExpr // method value (r.produce) installed as Fn
}

func (s fnSite) pos() token.Pos {
	if s.lit != nil {
		return s.lit.Pos()
	}
	return s.sel.Pos()
}

func (s fnSite) end() token.Pos {
	if s.lit != nil {
		return s.lit.End()
	}
	return s.sel.End()
}

func run(pass *framework.Pass) error {
	decls := methodDecls(pass)
	effects := make(map[*types.Func]*recvEffects)
	for _, f := range pass.Files {
		checkFile(pass, f, decls, effects)
	}
	return nil
}

func checkFile(pass *framework.Pass, f *ast.File, decls map[*types.Func]*ast.FuncDecl, effects map[*types.Func]*recvEffects) {
	sites := functorSites(pass.TypesInfo, f)
	if len(sites) < 2 {
		return
	}

	// Group the functors by their innermost enclosing function: the
	// literals and method values installed inside one Make (or one builder
	// body) are the sibling stages of one alternative.
	var encl []*ast.BlockStmt
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				encl = append(encl, n.Body)
			}
		case *ast.FuncLit:
			encl = append(encl, n.Body)
		}
		return true
	})
	groups := make(map[*ast.BlockStmt][]fnSite)
	for _, s := range sites {
		b := innermost(encl, s.pos(), s.end())
		groups[b] = append(groups[b], s)
	}

	for _, group := range groups {
		if len(group) < 2 {
			continue
		}
		fs := make([]*functor, len(group))
		for i, s := range group {
			if s.lit != nil {
				fs[i] = analyze(pass, s.lit, decls, effects)
			} else {
				fs[i] = analyzeMethod(pass, s.sel, decls, effects)
			}
		}
		checkSharedWrites(pass, fs)
		checkCapturedSends(pass, fs)
	}
}

// checkSharedWrites is the shared-written-capture rule: an access captured
// by two or more sibling functors and written by at least one. The
// comparison is field-granular — two functors that share a captured struct
// but write disjoint fields of it keep disjoint state and are not flagged.
func checkSharedWrites(pass *framework.Pass, fs []*functor) {
	reported := make(map[access]bool)
	for _, fn := range fs {
		for a, pos := range fn.writes {
			if reported[a] || isSanctionedShared(a.v.Type()) ||
				(a.field != nil && isSanctionedShared(a.field.Type())) {
				continue
			}
			shared := 0
			for _, other := range fs {
				if capturesConflicting(other, a) {
					shared++
				}
			}
			if shared < 2 {
				continue
			}
			reported[a] = true
			pass.Reportf(pos,
				"stage functor writes %q, which a sibling stage functor also captures: stages may share state only through channels, queues, or sync primitives, or the drain protocol cannot guarantee items never migrate between stages", a.name())
		}
	}
}

// capturesVar reports whether fn captured v at all, whole or by field.
func capturesVar(fn *functor, v *types.Var) bool {
	for b := range fn.caps {
		if b.v == v {
			return true
		}
	}
	return false
}

// capturesConflicting reports whether fn captured any access that can alias
// a.
func capturesConflicting(fn *functor, a access) bool {
	for b := range fn.caps {
		if a.conflicts(b) {
			return true
		}
	}
	return false
}

// checkCapturedSends is the captured-reference-send rule: a functor
// forwarding a captured reference on a conduit a sibling consumes.
func checkCapturedSends(pass *framework.Pass, fs []*functor) {
	for _, fn := range fs {
		for _, s := range fn.sends {
			if s.value == nil || s.conduit == nil {
				continue
			}
			if !capturesVar(fn, s.value) || !isRefType(s.value.Type()) {
				continue
			}
			consumed := false
			for _, other := range fs {
				if other != fn && other.recvs[s.conduit] {
					consumed = true
					break
				}
			}
			if !consumed {
				continue
			}
			pass.Reportf(s.pos,
				"stage functor forwards the captured reference %q to a sibling stage: every iteration sends the same object, so both stages alias it; hand off a value produced inside the functor so each item has one owner at a time", s.value.Name())
		}
	}
}

// functorSites collects the expressions installed as stage functors: the Fn
// field of a core.StageFns or dope.PipeStage composite literal, or the
// right-hand side of an assignment to such a value's Fn field. A site is a
// functor literal or a method value.
func functorSites(info *types.Info, f *ast.File) []fnSite {
	seenLit := make(map[*ast.FuncLit]bool)
	seenSel := make(map[*ast.SelectorExpr]bool)
	var sites []fnSite
	add := func(e ast.Expr) {
		switch x := ast.Unparen(e).(type) {
		case *ast.FuncLit:
			if !seenLit[x] {
				seenLit[x] = true
				sites = append(sites, fnSite{lit: x})
			}
		case *ast.SelectorExpr:
			s, ok := info.Selections[x]
			if ok && s.Kind() == types.MethodVal && !seenSel[x] {
				seenSel[x] = true
				sites = append(sites, fnSite{sel: x})
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if !isStageType(typeOf(info, n)) {
				return true
			}
			if fn := fieldValue(info, n, "Fn"); fn != nil {
				add(fn)
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Fn" || i >= len(n.Rhs) {
					continue
				}
				if isStageType(typeOf(info, sel.X)) {
					add(n.Rhs[i])
				}
			}
		}
		return true
	})
	return sites
}

// innermost returns the smallest enclosing function body that properly
// contains the [pos, end) span, or nil for a package-level site.
func innermost(bodies []*ast.BlockStmt, pos, end token.Pos) *ast.BlockStmt {
	var best *ast.BlockStmt
	for _, b := range bodies {
		if b.Pos() > pos || end > b.End() {
			continue
		}
		if best == nil || b.Pos() > best.Pos() {
			best = b
		}
	}
	return best
}

// analyze walks one functor body and records its captured variables,
// writes, sends, and receives.
func analyze(pass *framework.Pass, lit *ast.FuncLit, decls map[*types.Func]*ast.FuncDecl, effects map[*types.Func]*recvEffects) *functor {
	info := pass.TypesInfo
	fn := &functor{
		lit:    lit,
		caps:   make(map[access]token.Pos),
		writes: make(map[access]token.Pos),
		recvs:  make(map[*types.Var]bool),
	}
	// fieldOf keeps the Ident walk below field-granular: an identifier used
	// bare — passed along, aliased, method receiver — stays a whole-variable
	// access. folded narrows helper-method calls the same way: the base of
	// c.bump() contributes bump's receiver-field effects at the call site
	// instead of a whole-variable capture of c.
	fieldOf := fieldSelections(info, lit.Body)
	folded := foldableCalls(pass, lit.Body, decls, effects)
	capture := func(a access, pos token.Pos) bool {
		if a.v == nil || !captured(pass, a.v, lit) {
			return false
		}
		if _, ok := fn.caps[a]; !ok {
			fn.caps[a] = pos
		}
		return true
	}
	write := func(e ast.Expr) {
		if a := rootAccess(info, e); capture(a, e.Pos()) {
			if _, ok := fn.writes[a]; !ok {
				fn.writes[a] = e.Pos()
			}
		}
	}
	// fold records one access of a helper-method summary against the call's
	// receiver variable, at the call site's position.
	fold := func(a access, isWrite bool, pos token.Pos) {
		if !capture(a, pos) {
			return
		}
		if isWrite {
			if _, ok := fn.writes[a]; !ok {
				fn.writes[a] = pos
			}
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			obj := info.Uses[n]
			if v, ok := obj.(*types.Var); ok {
				if ce := folded[n]; ce != nil {
					for f := range ce.reads {
						fold(access{v: v, field: f}, false, n.Pos())
					}
					for f := range ce.writes {
						fold(access{v: v, field: f}, true, n.Pos())
					}
					if ce.whole {
						fold(access{v: v}, false, n.Pos())
					}
					if ce.wholeWrite {
						fold(access{v: v}, true, n.Pos())
					}
					return true
				}
				capture(access{v: v, field: fieldOf[n]}, n.Pos())
			}
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range n.Lhs {
				write(lhs)
			}
		case *ast.IncDecStmt:
			write(n.X)
		case *ast.RangeStmt:
			if isChan(typeOf(info, n.X)) {
				fn.recvs[rootVar(info, n.X)] = true
			}
			if n.Tok == token.ASSIGN {
				if n.Key != nil {
					write(n.Key)
				}
				if n.Value != nil {
					write(n.Value)
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				fn.recvs[rootVar(info, n.X)] = true
			}
		case *ast.SendStmt:
			fn.sends = append(fn.sends, send{
				conduit: rootVar(info, n.Chan),
				value:   rootVar(info, n.Value),
				pos:     n.Pos(),
			})
		case *ast.CallExpr:
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok || !isQueue(typeOf(info, sel.X)) {
				return true
			}
			switch sel.Sel.Name {
			case "Enqueue", "TryEnqueue":
				if len(n.Args) == 1 {
					fn.sends = append(fn.sends, send{
						conduit: rootVar(info, sel.X),
						value:   rootVar(info, n.Args[0]),
						pos:     n.Pos(),
					})
				}
			case "Dequeue", "TryDequeue", "DequeueWhile", "DequeueUntil":
				fn.recvs[rootVar(info, sel.X)] = true
			}
		}
		return true
	})
	return fn
}

// analyzeMethod resolves a method value installed as a stage functor and
// records its receiver-field accesses as captures of the site's receiver
// variable: with Fn: c.head and Fn: c.tail the shared state is the fields
// of c, at the same field granularity as literal functors. Calls the method
// makes to sibling helpers on its own receiver fold the helper's effects at
// the call site. Only a pointer-receiver method aliases the site variable —
// a value-receiver method value copies the receiver when it is bound, so
// whatever its body touches is private to the copy. Sends and receives
// inside the method body are not tracked: the captured-reference-send rule
// stays scoped to literal functors, where the captured variable and the
// send share one body.
func analyzeMethod(pass *framework.Pass, site *ast.SelectorExpr, decls map[*types.Func]*ast.FuncDecl, effects map[*types.Func]*recvEffects) *functor {
	info := pass.TypesInfo
	fn := &functor{
		caps:   make(map[access]token.Pos),
		writes: make(map[access]token.Pos),
		recvs:  make(map[*types.Var]bool),
	}
	s, ok := info.Selections[site]
	if !ok || s.Kind() != types.MethodVal {
		return fn
	}
	m, _ := s.Obj().(*types.Func)
	siteRecv := rootVar(info, site.X)
	if m == nil || siteRecv == nil {
		return fn
	}
	sig, _ := m.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return fn
	}
	if _, ptr := sig.Recv().Type().(*types.Pointer); !ptr {
		return fn
	}
	decl := decls[m.Origin()]
	if decl == nil || decl.Body == nil || decl.Recv == nil ||
		len(decl.Recv.List) == 0 || len(decl.Recv.List[0].Names) == 0 {
		// The body is out of reach (other package) or the receiver is
		// anonymous: assume the method can touch the whole receiver.
		fn.caps[access{v: siteRecv}] = site.Pos()
		return fn
	}
	recvVar, _ := info.Defs[decl.Recv.List[0].Names[0]].(*types.Var)
	if recvVar == nil {
		fn.caps[access{v: siteRecv}] = site.Pos()
		return fn
	}

	// Same field-granularity walk as analyze, but only receiver-rooted
	// accesses count, remapped onto the site variable so identity lines up
	// across sibling methods and literals sharing the same receiver.
	fieldOf := fieldSelections(info, decl.Body)
	folded := foldableCalls(pass, decl.Body, decls, effects)
	remap := func(a access) (access, bool) {
		if a.v != recvVar {
			return access{}, false
		}
		a.v = siteRecv
		return a, true
	}
	write := func(e ast.Expr) {
		a, ok := remap(rootAccess(info, e))
		if !ok {
			return
		}
		if _, seen := fn.caps[a]; !seen {
			fn.caps[a] = e.Pos()
		}
		if _, seen := fn.writes[a]; !seen {
			fn.writes[a] = e.Pos()
		}
	}
	fold := func(a access, isWrite bool, pos token.Pos) {
		if _, seen := fn.caps[a]; !seen {
			fn.caps[a] = pos
		}
		if isWrite {
			if _, seen := fn.writes[a]; !seen {
				fn.writes[a] = pos
			}
		}
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if v, ok := info.Uses[n].(*types.Var); ok && v == recvVar {
				if ce := folded[n]; ce != nil {
					for f := range ce.reads {
						fold(access{v: siteRecv, field: f}, false, n.Pos())
					}
					for f := range ce.writes {
						fold(access{v: siteRecv, field: f}, true, n.Pos())
					}
					if ce.whole {
						fold(access{v: siteRecv}, false, n.Pos())
					}
					if ce.wholeWrite {
						fold(access{v: siteRecv}, true, n.Pos())
					}
					return true
				}
				if a, ok := remap(access{v: v, field: fieldOf[n]}); ok {
					if _, seen := fn.caps[a]; !seen {
						fn.caps[a] = n.Pos()
					}
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range n.Lhs {
				write(lhs)
			}
		case *ast.IncDecStmt:
			write(n.X)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				if n.Key != nil {
					write(n.Key)
				}
				if n.Value != nil {
					write(n.Value)
				}
			}
		}
		return true
	})
	return fn
}

// recvEffects summarizes what a pointer-receiver method does to its
// receiver, position-free so one summary serves every call site: the direct
// fields it reads and writes, and whether it touches the receiver as a
// whole (aliased, passed along, read through a promoted field — whole; the
// target of a store — wholeWrite).
type recvEffects struct {
	reads      map[*types.Var]bool
	writes     map[*types.Var]bool
	whole      bool
	wholeWrite bool
}

// methodEffects computes m's receiver effects, folding calls it makes to
// sibling methods on its own receiver, memoized in cache. It returns nil —
// fold nothing, fall back to a whole-variable capture — for a
// value-receiver method (the call acts on a copy) or a body out of reach
// (another package, anonymous receiver). The summary is installed in cache
// before the walk, so a recursive call chain folds the partial summary
// instead of looping; the fixed point is under-approximated, which only
// narrows the folded access set back toward the direct accesses.
func methodEffects(pass *framework.Pass, m *types.Func, decls map[*types.Func]*ast.FuncDecl, cache map[*types.Func]*recvEffects) *recvEffects {
	if m == nil {
		return nil
	}
	m = m.Origin()
	if eff, ok := cache[m]; ok {
		return eff
	}
	sig, _ := m.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return nil
	}
	if _, ptr := sig.Recv().Type().(*types.Pointer); !ptr {
		return nil
	}
	decl := decls[m]
	if decl == nil || decl.Body == nil || decl.Recv == nil ||
		len(decl.Recv.List) == 0 || len(decl.Recv.List[0].Names) == 0 {
		return nil
	}
	info := pass.TypesInfo
	recvVar, _ := info.Defs[decl.Recv.List[0].Names[0]].(*types.Var)
	if recvVar == nil {
		return nil
	}
	eff := &recvEffects{
		reads:  make(map[*types.Var]bool),
		writes: make(map[*types.Var]bool),
	}
	cache[m] = eff

	fieldOf := fieldSelections(info, decl.Body)
	folded := foldableCalls(pass, decl.Body, decls, cache)
	write := func(e ast.Expr) {
		a := rootAccess(info, e)
		if a.v != recvVar {
			return
		}
		if a.field != nil {
			eff.writes[a.field] = true
		} else {
			eff.wholeWrite = true
		}
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if v, _ := info.Uses[n].(*types.Var); v == recvVar && v != nil {
				switch {
				case folded[n] != nil:
					ce := folded[n]
					for f := range ce.reads {
						eff.reads[f] = true
					}
					for f := range ce.writes {
						eff.writes[f] = true
					}
					eff.whole = eff.whole || ce.whole
					eff.wholeWrite = eff.wholeWrite || ce.wholeWrite
				case fieldOf[n] != nil:
					eff.reads[fieldOf[n]] = true
				default:
					eff.whole = true
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range n.Lhs {
				write(lhs)
			}
		case *ast.IncDecStmt:
			write(n.X)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				if n.Key != nil {
					write(n.Key)
				}
				if n.Value != nil {
					write(n.Value)
				}
			}
		}
		return true
	})
	return eff
}

// fieldSelections maps each base identifier in body to the field directly
// selected from it (s in s.f, including through an auto-deref), so an Ident
// walk records field-granular accesses instead of whole variables.
func fieldSelections(info *types.Info, body *ast.BlockStmt) map[*ast.Ident]*types.Var {
	fieldOf := make(map[*ast.Ident]*types.Var)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok {
			return true
		}
		if f := directField(info, sel); f != nil {
			fieldOf[id] = f
		}
		return true
	})
	return fieldOf
}

// foldableCalls maps the base identifier of each method call in body whose
// receiver effects are computable (c in c.bump()) to the callee's summary.
// The caller folds the summary at the call site and skips the whole-variable
// capture the bare identifier would otherwise record.
func foldableCalls(pass *framework.Pass, body *ast.BlockStmt, decls map[*types.Func]*ast.FuncDecl, cache map[*types.Func]*recvEffects) map[*ast.Ident]*recvEffects {
	info := pass.TypesInfo
	folded := make(map[*ast.Ident]*recvEffects)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok {
			return true
		}
		s, ok := info.Selections[sel]
		if !ok || s.Kind() != types.MethodVal {
			return true
		}
		callee, _ := s.Obj().(*types.Func)
		if ce := methodEffects(pass, callee, decls, cache); ce != nil {
			folded[id] = ce
		}
		return true
	})
	return folded
}

// methodDecls indexes the package's method declarations by their type
// object, so analyzeMethod can walk the body behind a method value.
func methodDecls(pass *framework.Pass) map[*types.Func]*ast.FuncDecl {
	m := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				m[obj] = fd
			}
		}
	}
	return m
}

// captured reports whether v is a function-scoped variable declared outside
// lit: a closure capture. Package-level variables, fields, and lit's own
// locals and parameters are not captures.
func captured(pass *framework.Pass, v *types.Var, lit *ast.FuncLit) bool {
	if v.IsField() || v.Pkg() != pass.Pkg || !v.Pos().IsValid() {
		return false
	}
	if v.Parent() == pass.Pkg.Scope() {
		return false
	}
	return v.Pos() < lit.Pos() || v.Pos() >= lit.End()
}

// rootAccess resolves an lvalue or payload expression to its field-granular
// access: x.f, x.f.g, x.f[i] all root in the access (x, f); x, *x, x[i]
// root in x as a whole. Promoted (embedded) fields fall back to the whole
// variable — their storage overlaps other promotion paths.
func rootAccess(info *types.Info, e ast.Expr) access {
	for {
		x := ast.Unparen(e)
		if sel, ok := x.(*ast.SelectorExpr); ok {
			if id, isID := ast.Unparen(sel.X).(*ast.Ident); isID {
				if _, isPkg := info.Uses[id].(*types.PkgName); !isPkg {
					v, _ := info.Uses[id].(*types.Var)
					return access{v: v, field: directField(info, sel)}
				}
			}
		}
		switch x := x.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return access{v: rootVar(info, e)}
		}
	}
}

// directField returns the field selected by sel when it is a plain
// single-step field selection (no embedded-field promotion), else nil.
func directField(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal || len(s.Index()) != 1 {
		return nil
	}
	f, _ := s.Obj().(*types.Var)
	return f
}

// rootVar resolves the variable an lvalue or payload expression is rooted
// in: x, x.f, x[i], *x, and chains thereof all root in x. A qualified
// package reference roots in the named package variable.
func rootVar(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			v, _ := info.Uses[x].(*types.Var)
			return v
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
					v, _ := info.Uses[x.Sel].(*types.Var)
					return v
				}
			}
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	tv, ok := info.Types[ast.Unparen(e)]
	if !ok {
		return nil
	}
	return tv.Type
}

// isStageType reports whether t (or *t) is core.StageFns or dope.PipeStage.
func isStageType(t types.Type) bool {
	named := namedOf(t)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Path() {
	case protocol.CorePath:
		return named.Obj().Name() == "StageFns"
	case "dope":
		return named.Obj().Name() == "PipeStage"
	}
	return false
}

// isSanctionedShared reports whether t is a type siblings may share: a
// channel, a queue.Queue, or a sync or sync/atomic primitive (all after
// stripping one pointer).
func isSanctionedShared(t types.Type) bool {
	if t == nil {
		return false
	}
	if isChan(t) || isQueue(t) {
		return true
	}
	named := namedOf(t)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Path() {
	case "sync", "sync/atomic":
		return true
	}
	return false
}

func isChan(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

func isQueue(t types.Type) bool {
	named := namedOf(t)
	return named != nil && named.Obj().Name() == "Queue" &&
		named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == queuePath
}

// isRefType reports whether a value of type t aliases backing storage when
// copied: pointers, slices, and maps.
func isRefType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return true
	}
	return false
}

// namedOf strips one pointer and returns the named type, if any.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// fieldValue returns the expression bound to the named field of a struct
// composite literal, keyed or positional.
func fieldValue(info *types.Info, lit *ast.CompositeLit, name string) ast.Expr {
	t := typeOf(info, lit)
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	for i, el := range lit.Elts {
		if kv, keyed := el.(*ast.KeyValueExpr); keyed {
			if id, isID := kv.Key.(*ast.Ident); isID && id.Name == name {
				return kv.Value
			}
			continue
		}
		if i < st.NumFields() && st.Field(i).Name() == name {
			return el
		}
	}
	return nil
}
