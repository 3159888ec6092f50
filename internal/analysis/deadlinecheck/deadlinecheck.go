// Package deadlinecheck checks that a stage declaring an invocation
// Deadline has a functor prepared for cooperative cancellation. The
// executive's stall watchdog (core/stall.go) answers a deadline overrun by
// abandoning the slot: the platform token is reclaimed and the slot's Done
// channel closes, but in Go the goroutine itself cannot be killed — it
// leaks unless the functor notices. A functor that loops without ever
// consulting Worker.Done (or Context().Done(), or polling Worker.Suspending
// — which also observes the abandonment's retire flag) turns every stall
// into a permanent zombie goroutine.
//
// The check is structural: for each core.AltSpec composite literal whose
// Stages set a non-zero Deadline, the corresponding Fn of the AltInstance
// built by Make is resolved (function literal, or a same-package function
// named directly), and each of its outermost loops must reference one of
// the cooperation signals — Worker.Done, Worker.Context, Worker.Suspending,
// TaskContext.Done, or Worker.RunNest (which observes suspension
// internally) — anywhere in the loop, including as an argument (the
// DequeueUntil(w.Done()) idiom) and inside predicate function literals
// (the DequeueWhile idiom). Loops nested inside a cooperating loop
// are not re-checked: the outer loop bounds how long the slot ignores the
// signal. Genuinely bounded spin loops can suppress the diagnostic with
// `//dopevet:ignore deadlinecheck <reason>`.
//
// Cooperation is recognized through helper functions via object facts: a
// function whose body consults one of the signals is summarized as
// cooperating, and a loop that calls it — from any package, via the
// driver's vetx fact files — counts as watching the signal itself.
package deadlinecheck

import (
	"go/ast"
	"go/constant"
	"go/types"

	"dope/internal/analysis/framework"
	"dope/internal/analysis/protocol"
)

var Analyzer = &framework.Analyzer{
	Name: "deadlinecheck",
	Doc: "check that functors of stages declaring a Deadline watch " +
		"Worker.Done (or Suspending) in their loops, so a stalled invocation " +
		"can stop cooperatively instead of leaking its goroutine when abandoned",
	Run: run,
}

// coopFact marks a function whose body consults a cancellation signal the
// watchdog raises; calling it from a loop makes the loop cooperative.
type coopFact struct {
	Cooperates bool `json:"cooperates,omitempty"`
}

func run(pass *framework.Pass) error {
	decls := collectFuncDecls(pass)
	coop := summarizeCooperation(pass, decls)
	for fn := range coop {
		pass.ExportObjectFact(fn, coopFact{Cooperates: true})
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			if tv, ok := pass.TypesInfo.Types[lit]; !ok || !protocol.IsCoreType(tv.Type, "AltSpec") {
				return true
			}
			checkAlt(pass, lit, decls, coop)
			return true
		})
	}
	return nil
}

// summarizeCooperation computes, to a fixpoint, which declared functions
// consult a cooperation signal (directly or through another cooperating
// function, same-package or imported).
func summarizeCooperation(pass *framework.Pass, decls map[types.Object]*ast.FuncDecl) map[*types.Func]bool {
	coop := make(map[*types.Func]bool)
	for round := 0; round <= len(decls); round++ {
		changed := false
		for obj, fd := range decls {
			fn, ok := obj.(*types.Func)
			if !ok || coop[fn] {
				continue
			}
			if cooperates(pass, fd.Body, coop) {
				coop[fn] = true
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return coop
}

// deadlined is one stage of an alternative that sets a Deadline.
type deadlined struct {
	idx  int
	name string
}

// checkAlt inspects one core.AltSpec literal: stages with a non-zero
// Deadline are matched by index against the StageFns the Make callback
// builds, and each resolvable functor is checked.
func checkAlt(pass *framework.Pass, alt *ast.CompositeLit, decls map[types.Object]*ast.FuncDecl, coop map[*types.Func]bool) {
	stagesLit, _ := fieldValue(alt, "Stages").(*ast.CompositeLit)
	if stagesLit == nil {
		return
	}
	var stages []deadlined
	for i, el := range stagesLit.Elts {
		sl, ok := el.(*ast.CompositeLit)
		if !ok {
			continue
		}
		dl := fieldValue(sl, "Deadline")
		if dl == nil || isZero(pass.TypesInfo, dl) {
			continue
		}
		name := stringConst(pass.TypesInfo, fieldValue(sl, "Name"))
		stages = append(stages, deadlined{idx: i, name: name})
	}
	if len(stages) == 0 {
		return
	}
	makeBody := funcBody(pass, fieldValue(alt, "Make"), decls)
	if makeBody == nil {
		return
	}
	// The AltInstance literal Make returns carries the index-aligned Fns.
	var instLit *ast.CompositeLit
	ast.Inspect(makeBody, func(n ast.Node) bool {
		if instLit != nil {
			return false
		}
		if cl, ok := n.(*ast.CompositeLit); ok {
			if tv, ok := pass.TypesInfo.Types[cl]; ok && protocol.IsCoreType(tv.Type, "AltInstance") {
				instLit = cl
				return false
			}
		}
		return true
	})
	if instLit == nil {
		return
	}
	fnsLit, _ := fieldValue(instLit, "Stages").(*ast.CompositeLit)
	if fnsLit == nil {
		return
	}
	for _, st := range stages {
		if st.idx >= len(fnsLit.Elts) {
			continue
		}
		sf, ok := fnsLit.Elts[st.idx].(*ast.CompositeLit)
		if !ok {
			continue
		}
		body := funcBody(pass, fieldValue(sf, "Fn"), decls)
		if body == nil {
			continue
		}
		checkFunctor(pass, st, body, coop)
	}
}

// checkFunctor reports each outermost loop of a deadlined stage's functor
// that never references a cooperation signal.
func checkFunctor(pass *framework.Pass, st deadlined, body *ast.BlockStmt, coop map[*types.Func]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			if !cooperates(pass, n, coop) {
				pass.Reportf(n.Pos(),
					"stage %q sets Deadline but this loop never checks Worker.Done, Context().Done, or Suspending; a stalled invocation cannot stop cooperatively and leaks its goroutine when abandoned",
					st.name)
			}
			return false // outermost loops only; an outer check bounds the inner
		case *ast.FuncLit:
			return false // nested literals are their own functors
		}
		return true
	})
}

// cooperates reports whether the node (a loop, or a whole function body
// during summarization — including conditions, post statements, and nested
// function literals, the DequeueWhile-predicate idiom) references a
// cancellation signal the watchdog raises, directly or through a call to a
// function summarized as cooperating (coop for this package, object facts
// for imported ones).
func cooperates(pass *framework.Pass, node ast.Node, coop map[*types.Func]bool) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch protocol.WorkerMethod(pass.TypesInfo, call) {
		case "Done", "Context", "Suspending", "RunNest":
			found = true
		}
		if protocol.TaskContextMethod(pass.TypesInfo, call) == "Done" {
			found = true
		}
		if !found {
			if fn := protocol.CalleeFunc(pass.TypesInfo, call); fn != nil {
				if coop[fn] {
					found = true
				} else {
					var f coopFact
					if pass.ImportObjectFact(fn, &f) && f.Cooperates {
						found = true
					}
				}
			}
		}
		return !found
	})
	return found
}

// fieldValue returns the value of the named field in a keyed composite
// literal, or nil.
func fieldValue(lit *ast.CompositeLit, name string) ast.Expr {
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if id, ok := kv.Key.(*ast.Ident); ok && id.Name == name {
			return kv.Value
		}
	}
	return nil
}

// isZero reports whether e is the constant zero (an explicit Deadline: 0).
func isZero(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[ast.Unparen(e)]
	if !ok || tv.Value == nil {
		return false
	}
	v, ok := constant.Int64Val(tv.Value)
	return ok && v == 0
}

// stringConst returns e's constant string value, or "" when unavailable.
func stringConst(info *types.Info, e ast.Expr) string {
	if e == nil {
		return ""
	}
	tv, ok := info.Types[ast.Unparen(e)]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return ""
	}
	return constant.StringVal(tv.Value)
}

// funcBody resolves a function-valued expression to its body: a function
// literal directly, or an identifier naming a same-package function
// declaration. Anything else (a field, a call result, a cross-package
// function) is unresolvable and skipped rather than guessed at.
func funcBody(pass *framework.Pass, e ast.Expr, decls map[types.Object]*ast.FuncDecl) *ast.BlockStmt {
	switch e := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		return e.Body
	case *ast.Ident:
		if obj := pass.TypesInfo.Uses[e]; obj != nil {
			if d := decls[obj]; d != nil {
				return d.Body
			}
		}
	case nil:
	}
	return nil
}

// collectFuncDecls indexes the package's function declarations by their
// type object, so Fn: someFunc resolves to someFunc's body.
func collectFuncDecls(pass *framework.Pass) map[types.Object]*ast.FuncDecl {
	decls := make(map[types.Object]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
					decls[obj] = fd
				}
			}
		}
	}
	return decls
}
