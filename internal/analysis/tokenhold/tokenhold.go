// Package tokenhold checks that no blocking operation runs between
// Worker.Begin and Worker.End. Begin claims one of the platform's hardware
// contexts and End releases it (the paper's Task interface); blocking while
// holding the token — a channel operation, a mutex, a sleep, file or
// network I/O, or running a nested loop via Worker.RunNest — parks a
// context the executive believes is executing, corrupting the monitors'
// execution-time features and starving other stages of contexts.
//
// The analysis is interprocedural through object facts: every declared
// function is summarized — does it block, does it open or close a Begin/End
// window for its caller — and the summaries are exported, so a call to a
// blocking helper inside a window is flagged even when the helper lives in
// another package. Indirect calls (function values, interface methods) are
// still not inspected.
//
// A blocking site carrying //dopevet:ignore tokenhold is blessed at the
// source: it neither reports nor summarizes its enclosing function as
// blocking, so callers of a deliberately-occupying helper (e.g. a virtual
// CPU-work kernel that sleeps to model context occupancy) stay clean.
package tokenhold

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"dope/internal/analysis/framework"
	"dope/internal/analysis/protocol"
)

var Analyzer = &framework.Analyzer{
	Name: "tokenhold",
	Doc: "check that no blocking operation (channel send/receive, select, " +
		"mutex lock, sleep, I/O, Worker.RunNest, a summarized blocking helper) " +
		"runs between Worker.Begin and Worker.End while a platform context is held",
	Run: run,
}

// holdFact is tokenhold's per-function summary, exported across packages:
// whether calling the function blocks, and its Begin/End window effect
// (tracked separately from beginend's facts — fact namespaces are
// per-analyzer).
type holdFact struct {
	Opens  bool `json:"opens,omitempty"`
	Closes bool `json:"closes,omitempty"`
	Blocks bool `json:"blocks,omitempty"`
}

// blockingFuncs maps package-level functions known to block.
var blockingFuncs = map[[2]string]bool{
	{"time", "Sleep"}:        true,
	{"os", "Open"}:           true,
	{"os", "Create"}:         true,
	{"os", "ReadFile"}:       true,
	{"os", "WriteFile"}:      true,
	{"io", "Copy"}:           true,
	{"io", "ReadAll"}:        true,
	{"net", "Dial"}:          true,
	{"net", "DialTimeout"}:   true,
	{"net", "Listen"}:        true,
	{"net/http", "Get"}:      true,
	{"net/http", "Post"}:     true,
	{"net/http", "Head"}:     true,
	{"net/http", "PostForm"}: true,
}

// blockingMethods maps (package, type, method) for methods known to block.
var blockingMethods = map[[3]string]bool{
	{"sync", "Mutex", "Lock"}:                        true,
	{"sync", "RWMutex", "Lock"}:                      true,
	{"sync", "RWMutex", "RLock"}:                     true,
	{"sync", "WaitGroup", "Wait"}:                    true,
	{"sync", "Cond", "Wait"}:                         true,
	{"sync", "Once", "Do"}:                           true,
	{"os", "File", "Read"}:                           true,
	{"os", "File", "Write"}:                          true,
	{"os", "File", "Sync"}:                           true,
	{"net/http", "Client", "Do"}:                     true,
	{"net/http", "Client", "Get"}:                    true,
	{"net/http", "Client", "Post"}:                   true,
	{"os/exec", "Cmd", "Run"}:                        true,
	{"os/exec", "Cmd", "Wait"}:                       true,
	{"os/exec", "Cmd", "Output"}:                     true,
	{"os/exec", "Cmd", "CombinedOutput"}:             true,
	{"dope/internal/queue", "Queue", "Enqueue"}:      true,
	{"dope/internal/queue", "Queue", "Dequeue"}:      true,
	{"dope/internal/queue", "Queue", "DequeueWhile"}: true,
	{"dope/internal/queue", "Queue", "DequeueUntil"}: true,
}

// checker carries the per-package summaries through one run.
type checker struct {
	pass    *framework.Pass
	sup     *framework.SuppressionIndex
	windows map[*types.Func]int
	blocks  map[*types.Func]bool
}

func run(pass *framework.Pass) error {
	c := &checker{pass: pass, sup: framework.NewSuppressionIndex(pass.Fset, pass.Files)}
	c.windows = protocol.SummarizeWindows(pass.Files, pass.Pkg, pass.TypesInfo, c.importedWindow)
	c.blocks = c.summarizeBlocks()

	// Export the combined summary of every function that has one.
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fact := holdFact{
				Opens:  c.windows[fn] > 0,
				Closes: c.windows[fn] < 0,
				Blocks: c.blocks[fn],
			}
			if fact != (holdFact{}) {
				pass.ExportObjectFact(fn, fact)
			}
		}
	}

	for _, fn := range protocol.Funcs(pass.Files) {
		eng := &protocol.Engine{
			Info:        pass.TypesInfo,
			WindowDelta: c.windowDelta,
			Hooks: protocol.Hooks{
				Stmt: func(n ast.Node, depth protocol.DepthMask) {
					if !depth.CanHold() {
						return
					}
					c.forEachBlocking(n, func(pos token.Pos, op string) {
						report(pass, pos, op)
					})
				},
			},
		}
		eng.Run(fn)
	}
	return nil
}

// importedWindow resolves the window effect of a function from another
// package via tokenhold's own facts.
func (c *checker) importedWindow(fn *types.Func) int {
	var f holdFact
	if c.pass.ImportObjectFact(fn, &f) {
		switch {
		case f.Opens:
			return +1
		case f.Closes:
			return -1
		}
	}
	return 0
}

// windowDelta combines this package's summaries with imported facts.
func (c *checker) windowDelta(fn *types.Func) int {
	if d, ok := c.windows[fn]; ok {
		return d
	}
	return c.importedWindow(fn)
}

// blocksFn reports whether a call to fn is known to block, from this
// package's summaries or imported facts.
func (c *checker) blocksFn(fn *types.Func) bool {
	if c.blocks[fn] {
		return true
	}
	var f holdFact
	return c.pass.ImportObjectFact(fn, &f) && f.Blocks
}

// summarizeBlocks computes, to a fixpoint, which declared functions perform
// a blocking operation at a point where the caller's window (if any) is
// still open: the body is interpreted from depth 1, so a helper that closes
// the window before blocking is not penalized.
func (c *checker) summarizeBlocks() map[*types.Func]bool {
	type cand struct {
		fn   *types.Func
		body *ast.BlockStmt
	}
	var cands []cand
	for _, f := range c.pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := c.pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				cands = append(cands, cand{fn, fd.Body})
			}
		}
	}
	c.blocks = make(map[*types.Func]bool)
	for round := 0; round <= len(cands); round++ {
		changed := false
		for _, cd := range cands {
			if c.blocks[cd.fn] {
				continue
			}
			found := false
			eng := &protocol.Engine{
				Info:        c.pass.TypesInfo,
				WindowDelta: c.windowDelta,
				Hooks: protocol.Hooks{
					Stmt: func(n ast.Node, depth protocol.DepthMask) {
						if found || !depth.CanHold() {
							return
						}
						// A site blessed with //dopevet:ignore tokenhold does
						// not taint the enclosing function's summary: the
						// suppression retires the finding for every caller,
						// not just the line it sits on.
						c.forEachBlocking(n, func(pos token.Pos, _ string) {
							if !c.sup.Suppressed(c.pass.Analyzer.Name, pos) {
								found = true
							}
						})
					},
				},
			}
			eng.RunFrom(protocol.Func{Body: cd.body}, protocol.D1)
			if found {
				c.blocks[cd.fn] = true
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return c.blocks
}

// forEachBlocking invokes emit for every blocking operation in one
// reachable statement or condition.
func (c *checker) forEachBlocking(n ast.Node, emit func(token.Pos, string)) {
	info := c.pass.TypesInfo
	switch n := n.(type) {
	case *ast.SelectStmt:
		for _, cl := range n.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
				return // a default clause makes the select non-blocking
			}
		}
		emit(n.Pos(), "select")
		return
	case *ast.RangeStmt:
		if tv, ok := info.Types[n.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				emit(n.Pos(), "range over a channel")
			}
		}
		return
	case *ast.SendStmt:
		emit(n.Arrow, "channel send")
		// fall through to inspect value expressions below
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if m.Op == token.ARROW {
				emit(m.Pos(), "channel receive")
			}
		case *ast.CallExpr:
			if op := c.blockingCall(m); op != "" {
				emit(m.Pos(), op)
			}
		}
		return true
	})
}

func report(pass *framework.Pass, pos token.Pos, op string) {
	pass.Reportf(pos, "blocking %s while holding a platform context (move it outside the Begin/End window)", op)
}

// blockingCall classifies a call as a known blocking operation and returns
// a description, or "".
func (c *checker) blockingCall(call *ast.CallExpr) string {
	info := c.pass.TypesInfo
	if m := protocol.WorkerMethod(info, call); m != "" {
		if m == "RunNest" {
			return "Worker.RunNest (waits for a nested loop)"
		}
		return ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		if fn := protocol.CalleeFunc(info, call); fn != nil && c.blocksFn(fn) {
			return fmt.Sprintf("call to %s (a helper summarized as blocking)", fn.Name())
		}
		return ""
	}
	obj := info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	pkg := obj.Pkg().Path()
	name := sel.Sel.Name
	if s := info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
		recv := s.Recv()
		if p, isPtr := recv.(*types.Pointer); isPtr {
			recv = p.Elem()
		}
		named, isNamed := recv.(*types.Named)
		if !isNamed {
			return ""
		}
		tn := named.Obj()
		if tn.Pkg() == nil {
			return ""
		}
		if blockingMethods[[3]string{tn.Pkg().Path(), tn.Name(), name}] {
			return fmt.Sprintf("call to (%s.%s).%s", tn.Pkg().Name(), tn.Name(), name)
		}
		if fn, ok := obj.(*types.Func); ok && c.blocksFn(fn) {
			return fmt.Sprintf("call to (%s.%s).%s (a helper summarized as blocking)", tn.Pkg().Name(), tn.Name(), name)
		}
		return ""
	}
	if blockingFuncs[[2]string{pkg, name}] {
		return fmt.Sprintf("call to %s.%s", obj.Pkg().Name(), name)
	}
	if fn, ok := obj.(*types.Func); ok && c.blocksFn(fn) {
		return fmt.Sprintf("call to %s.%s (a helper summarized as blocking)", obj.Pkg().Name(), name)
	}
	return ""
}
