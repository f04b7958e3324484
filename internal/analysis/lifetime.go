package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the shared engine behind the linear-resource analyzers
// (framerelease, spanend): a lexical walker that tracks variables
// holding a "must be consumed exactly once" value — a pooled
// wire.Frame that must reach Release, a trace.SpanRef that must reach
// End — through straight-line code, branches, loops and closures, and
// reports paths on which the resource leaks, is consumed twice, or is
// used after consumption.
//
// The walker is deliberately optimistic at merge points: a resource
// released on only some branches merges to a "maybe released" state
// that reports nothing, and a resource that escapes the function
// (returned, stored into a field or composite, captured by a closure,
// sent on a channel, or — when the spec says argument passing
// transfers ownership — passed to a callee) simply stops being
// tracked. False negatives are acceptable; false positives would
// train people to sprinkle //lint:allow.

// lifetimeSpec parameterizes the walker for one resource kind.
type lifetimeSpec struct {
	// noun names the resource in messages ("frame", "span ref").
	noun string
	// acquire classifies a call as an acquisition, returning a short
	// display name for the acquiring call ("wire.ReadRequestFrame"),
	// or "" when the call does not acquire.
	acquire func(p *Pass, call *ast.CallExpr) string
	// release resolves a call that consumes the resource (method
	// receiver or argument) to the consumed variable, or nil.
	release func(p *Pass, call *ast.CallExpr) *types.Var
	// trackParam, when non-nil, reports whether a parameter of type t
	// carries release duty (ownership transferred from the caller).
	trackParam func(p *Pass, t types.Type) bool
	// errGuarded: acquisitions have the (T, error) shape and return a
	// zero, release-is-a-no-op T alongside a non-nil error, so
	// branches conditioned on the companion error variable are exempt
	// from leak reports.
	errGuarded bool
	// escapeOnArgPass: passing the tracked variable as a plain call
	// argument transfers release duty to the callee.
	escapeOnArgPass bool
	// report emits a diagnostic (the spec decides hard vs soft).
	report func(p *Pass, pos token.Pos, format string, args ...any)

	// Message formats. discardFmt takes the acquire display name;
	// leakReturnFmt takes (origin, return line); leakEndFmt takes
	// (origin); doubleFmt and useAfterFmt take the variable name.
	// An empty useAfterFmt disables use-after-release checking.
	discardFmt    string
	leakReturnFmt string
	leakEndFmt    string
	doubleFmt     string
	useAfterFmt   string
}

// ltState is a tracked resource's consumption state on one path.
type ltState int

const (
	ltLive     ltState = iota // must still be released
	ltMaybe                   // released on some merged-in path, or conditionally zero
	ltDone                    // definitely released
	ltDeferred                // released by a defer: later uses legal, later release double
)

// ltRes is one tracked resource binding.
type ltRes struct {
	display string // variable name
	origin  string // "frame fr from wire.ReadRequestFrame"
	pos     token.Pos
	state   ltState
	guard   *types.Var     // companion error var from the acquire, or nil
	owner   *ast.BlockStmt // block whose end bounds the binding (nil: function body)
	loops   int            // loops enclosing the binding, within its function
	warned  bool           // one use-after-release report per binding
}

type ltScope map[*types.Var]*ltRes

func cloneLtScope(sc ltScope) ltScope {
	c := make(ltScope, len(sc))
	for v, r := range sc {
		r2 := *r
		c[v] = &r2
	}
	return c
}

type ltWalker struct {
	pass     *Pass
	spec     *lifetimeSpec
	curBlock *ast.BlockStmt
	// loops counts the loops enclosing the statement being walked, and
	// breakable stacks the statements an unlabeled break can leave
	// (true for a loop, false for a switch or select), both within the
	// current function.
	loops     int
	breakable []bool
}

// runLifetime walks every function in the pass under the spec.
func runLifetime(pass *Pass, spec *lifetimeSpec) error {
	w := &ltWalker{pass: pass, spec: spec}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				w.funcBody(fd.Type, fd.Body)
			}
		}
	}
	return nil
}

// funcBody analyses one function (or function literal) as a fresh
// scope: resources do not flow in or out except through parameters the
// spec opts into.
func (w *ltWalker) funcBody(ft *ast.FuncType, body *ast.BlockStmt) {
	sc := ltScope{}
	if w.spec.trackParam != nil && ft.Params != nil {
		for _, field := range ft.Params.List {
			for _, name := range field.Names {
				v, ok := w.pass.Info.Defs[name].(*types.Var)
				if !ok || name.Name == "_" || !w.spec.trackParam(w.pass, v.Type()) {
					continue
				}
				sc[v] = &ltRes{
					display: name.Name,
					origin:  w.spec.noun + " parameter " + name.Name,
					pos:     name.Pos(),
					state:   ltLive,
				}
			}
		}
	}
	prev, prevLoops, prevBreakable := w.curBlock, w.loops, w.breakable
	w.curBlock, w.loops, w.breakable = nil, 0, nil
	w.block(body, sc)
	w.curBlock, w.loops, w.breakable = prev, prevLoops, prevBreakable
	for v, r := range sc {
		if r.state == ltLive {
			w.spec.report(w.pass, r.pos, w.spec.leakEndFmt, r.origin)
		}
		delete(sc, v)
	}
}

// block walks a statement list, threading the scope forward, then
// closes out resources whose binding is lexically scoped to b.
func (w *ltWalker) block(b *ast.BlockStmt, sc ltScope) {
	prev := w.curBlock
	w.curBlock = b
	for _, s := range b.List {
		w.stmt(s, sc)
	}
	w.curBlock = prev
	for v, r := range sc {
		if r.owner == b {
			if r.state == ltLive {
				w.spec.report(w.pass, r.pos, w.spec.leakEndFmt, r.origin)
			}
			delete(sc, v)
		}
	}
}

func (w *ltWalker) stmt(s ast.Stmt, sc ltScope) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		w.block(s, sc)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, sc)
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if w.releaseOp(call, sc, false) {
				return
			}
			if name := w.spec.acquire(w.pass, call); name != "" {
				w.spec.report(w.pass, call.Pos(), w.spec.discardFmt, name)
				w.callArgs(call, sc)
				return
			}
		}
		w.expr(s.X, sc)
	case *ast.AssignStmt:
		w.assign(s, sc)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					w.valueSpec(vs, sc)
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			if v := w.plainIdentVar(e); v != nil {
				if _, tracked := sc[v]; tracked {
					delete(sc, v) // returned to the caller: duty transfers
					continue
				}
			}
			w.expr(e, sc)
		}
		line := w.pass.Fset.Position(s.Pos()).Line
		for _, r := range sc {
			if r.state == ltLive {
				w.spec.report(w.pass, r.pos, w.spec.leakReturnFmt, r.origin, line)
				r.state = ltMaybe // one report per binding per return
			}
		}
	case *ast.DeferStmt:
		if w.releaseOp(s.Call, sc, true) {
			return
		}
		w.expr(s.Call.Fun, sc)
		w.callArgs(s.Call, sc)
	case *ast.GoStmt:
		w.expr(s.Call.Fun, sc)
		w.callArgs(s.Call, sc)
	case *ast.SendStmt:
		w.expr(s.Chan, sc)
		if v := w.plainIdentVar(s.Value); v != nil {
			if _, tracked := sc[v]; tracked {
				delete(sc, v) // sent to a consumer: duty transfers
				return
			}
		}
		w.expr(s.Value, sc)
	case *ast.IncDecStmt:
		w.expr(s.X, sc)
	case *ast.IfStmt:
		w.stmt(s.Init, sc)
		w.expr(s.Cond, sc)
		body := cloneLtScope(sc)
		w.guardWeaken(s.Cond, body)
		var contribs []ltScope
		w.stmt(s.Body, body)
		if !ltTerminates(s.Body) {
			contribs = append(contribs, body)
		}
		if s.Else != nil {
			els := cloneLtScope(sc)
			w.guardWeaken(s.Cond, els)
			w.stmt(s.Else, els)
			if !ltTerminates(s.Else) {
				contribs = append(contribs, els)
			}
		} else {
			contribs = append(contribs, cloneLtScope(sc)) // condition-false path
		}
		w.merge(sc, contribs)
	case *ast.ForStmt:
		w.stmt(s.Init, sc)
		w.expr(s.Cond, sc)
		skip := cloneLtScope(sc)
		body := cloneLtScope(sc)
		w.enter(true)
		w.stmt(s.Body, body)
		w.stmt(s.Post, body)
		w.leave()
		w.merge(sc, []ltScope{body, skip})
	case *ast.RangeStmt:
		w.expr(s.X, sc)
		skip := cloneLtScope(sc)
		body := cloneLtScope(sc)
		w.enter(true)
		w.stmt(s.Body, body)
		w.leave()
		w.merge(sc, []ltScope{body, skip})
	case *ast.BranchStmt:
		w.branch(s, sc)
	case *ast.SwitchStmt:
		w.stmt(s.Init, sc)
		w.expr(s.Tag, sc)
		w.enter(false)
		w.caseClauses(s.Body, sc, false)
		w.leave()
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init, sc)
		if assign, ok := s.Assign.(*ast.AssignStmt); ok {
			for _, e := range assign.Rhs {
				w.expr(e, sc)
			}
		} else if es, ok := s.Assign.(*ast.ExprStmt); ok {
			w.expr(es.X, sc)
		}
		w.enter(false)
		w.caseClauses(s.Body, sc, false)
		w.leave()
	case *ast.SelectStmt:
		w.enter(false)
		w.caseClauses(s.Body, sc, true)
		w.leave()
	default:
		// EmptyStmt: nothing to track.
	}
}

// enter and leave bracket a statement an unlabeled break can leave.
func (w *ltWalker) enter(loop bool) {
	w.breakable = append(w.breakable, loop)
	if loop {
		w.loops++
	}
}

func (w *ltWalker) leave() {
	if w.breakable[len(w.breakable)-1] {
		w.loops--
	}
	w.breakable = w.breakable[:len(w.breakable)-1]
}

// branch reports the resources an unlabeled continue, or a break out
// of a loop, abandons: those bound in the innermost loop's body, which
// the next iteration (or the code after the loop) can no longer reach.
// Labeled branches and goto are not followed.
func (w *ltWalker) branch(s *ast.BranchStmt, sc ltScope) {
	if s.Label != nil || w.loops == 0 {
		return
	}
	switch s.Tok {
	case token.CONTINUE:
	case token.BREAK:
		if !w.breakable[len(w.breakable)-1] {
			return // leaves a switch or select, not the loop
		}
	default:
		return
	}
	for _, r := range sc {
		if r.loops == w.loops && r.state == ltLive {
			w.spec.report(w.pass, r.pos, w.spec.leakEndFmt, r.origin)
			r.state = ltMaybe // one report per binding per branch
		}
	}
}

// caseClauses walks switch/select bodies: each clause is a branch
// clone; a switch without a default additionally contributes the
// no-case-matched path. A select executes exactly one clause.
func (w *ltWalker) caseClauses(body *ast.BlockStmt, sc ltScope, isSelect bool) {
	var contribs []ltScope
	hasDefault := false
	for _, c := range body.List {
		var clauseBody []ast.Stmt
		inner := cloneLtScope(sc)
		switch cc := c.(type) {
		case *ast.CaseClause:
			if cc.List == nil {
				hasDefault = true
			}
			for _, e := range cc.List {
				w.expr(e, sc)
			}
			clauseBody = cc.Body
		case *ast.CommClause:
			if cc.Comm == nil {
				hasDefault = true
			}
			w.stmt(cc.Comm, inner)
			clauseBody = cc.Body
		default:
			continue
		}
		for _, st := range clauseBody {
			w.stmt(st, inner)
		}
		terminated := false
		if n := len(clauseBody); n > 0 {
			terminated = ltTerminates(clauseBody[n-1])
		}
		if !terminated {
			contribs = append(contribs, inner)
		}
	}
	if !isSelect && !hasDefault {
		contribs = append(contribs, cloneLtScope(sc))
	}
	w.merge(sc, contribs)
}

// merge folds branch results back into the parent scope. A resource
// gone from any contributing branch escaped there — stop tracking it;
// states that disagree merge to ltMaybe (report nothing rather than
// report a false leak or false double-release).
func (w *ltWalker) merge(parent ltScope, contribs []ltScope) {
	if len(contribs) == 0 {
		return // every branch terminated; following code is unreachable
	}
	keys := make(map[*types.Var]bool)
	for v := range parent {
		keys[v] = true
	}
	for _, c := range contribs {
		for v := range c {
			keys[v] = true
		}
	}
	for v := range keys {
		var sample *ltRes
		state := ltLive
		present := 0
		for _, c := range contribs {
			r, ok := c[v]
			if !ok {
				continue
			}
			if present == 0 {
				sample, state = r, r.state
			} else if r.state != state {
				state = ltMaybe
			}
			present++
		}
		switch {
		case present == 0:
			delete(parent, v)
		case present < len(contribs):
			if _, had := parent[v]; had {
				delete(parent, v) // escaped on some path
				continue
			}
			state = ltMaybe // bound on some paths only
			fallthrough
		default:
			r2 := *sample
			r2.state = state
			parent[v] = &r2
		}
	}
}

// ltTerminates reports (lexically, conservatively) whether control
// cannot fall out of the bottom of s into the statement after the
// enclosing branch.
func ltTerminates(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return s.Tok != token.FALLTHROUGH
	case *ast.BlockStmt:
		if len(s.List) == 0 {
			return false
		}
		return ltTerminates(s.List[len(s.List)-1])
	case *ast.IfStmt:
		return s.Else != nil && ltTerminates(s.Body) && ltTerminates(s.Else)
	case *ast.LabeledStmt:
		return ltTerminates(s.Stmt)
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// assign handles acquisitions, overwrites and stores.
func (w *ltWalker) assign(s *ast.AssignStmt, sc ltScope) {
	if len(s.Rhs) == 1 {
		if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok {
			if name := w.spec.acquire(w.pass, call); name != "" {
				w.callArgs(call, sc)
				w.bindAcquire(s, call, name, sc)
				return
			}
		}
	}
	if len(s.Lhs) == len(s.Rhs) {
		for i := range s.Lhs {
			w.assignOne(s.Lhs[i], s.Rhs[i], sc)
		}
		return
	}
	for _, e := range s.Rhs {
		w.expr(e, sc)
	}
	for _, l := range s.Lhs {
		w.overwrite(l, sc)
	}
}

func (w *ltWalker) valueSpec(vs *ast.ValueSpec, sc ltScope) {
	if len(vs.Values) == 1 && len(vs.Names) >= 1 {
		if call, ok := ast.Unparen(vs.Values[0]).(*ast.CallExpr); ok {
			if name := w.spec.acquire(w.pass, call); name != "" {
				w.callArgs(call, sc)
				w.bindIdent(vs.Names[0], call, name, nil, sc)
				return
			}
		}
	}
	for _, e := range vs.Values {
		w.expr(e, sc)
	}
}

// assignOne handles one lhs := rhs pair of a parallel assignment.
func (w *ltWalker) assignOne(lhs, rhs ast.Expr, sc ltScope) {
	if v := w.plainIdentVar(rhs); v != nil {
		if r, tracked := sc[v]; tracked {
			if w.plainIdent(lhs) == nil {
				// stored into a field, element or dereference: escapes
				delete(sc, v)
				w.expr(lhs, sc)
				return
			}
			w.useCheck(rhs.Pos(), r)
			// a plain var-to-var copy keeps duty with the original
		}
	} else {
		w.expr(rhs, sc)
	}
	w.overwrite(lhs, sc)
}

// overwrite drops tracking for a variable assigned a non-acquire
// value (e.g. the router's passthrough SpanRef literal).
func (w *ltWalker) overwrite(lhs ast.Expr, sc ltScope) {
	if id := w.plainIdent(lhs); id != nil {
		if v := w.identVar(id); v != nil {
			delete(sc, v)
		}
		return
	}
	w.expr(lhs, sc)
}

func (w *ltWalker) bindAcquire(s *ast.AssignStmt, call *ast.CallExpr, name string, sc ltScope) {
	var guard *types.Var
	if w.spec.errGuarded && len(s.Lhs) == 2 {
		if id := w.plainIdent(s.Lhs[1]); id != nil && id.Name != "_" {
			if v := w.identVar(id); v != nil && isErrorType(v.Type()) {
				guard = v
			}
		}
	}
	id := w.plainIdent(s.Lhs[0])
	if id == nil {
		// Stored straight into a field or element: escapes at birth.
		w.expr(s.Lhs[0], sc)
		return
	}
	if id.Name == "_" {
		w.spec.report(w.pass, call.Pos(), w.spec.discardFmt, name)
		return
	}
	w.bindIdent(id, call, name, guard, sc)
	if s.Tok != token.DEFINE {
		if r := sc[w.identVar(id)]; r != nil {
			r.owner = nil // pre-declared var: binding outlives this block
		}
	}
}

func (w *ltWalker) bindIdent(id *ast.Ident, call *ast.CallExpr, name string, guard *types.Var, sc ltScope) {
	v := w.identVar(id)
	if v == nil {
		return
	}
	owner := w.curBlock
	if _, defined := w.pass.Info.Defs[id]; !defined {
		owner = nil
	}
	sc[v] = &ltRes{
		display: id.Name,
		origin:  w.spec.noun + " " + id.Name + " from " + name,
		pos:     call.Pos(),
		state:   ltLive,
		guard:   guard,
		owner:   owner,
		loops:   w.loops,
	}
}

// releaseOp applies a release call; reports double releases.
func (w *ltWalker) releaseOp(call *ast.CallExpr, sc ltScope, deferred bool) bool {
	v := w.spec.release(w.pass, call)
	if v == nil {
		return false
	}
	r, tracked := sc[v]
	if tracked {
		if r.state == ltDone || r.state == ltDeferred {
			w.spec.report(w.pass, call.Pos(), w.spec.doubleFmt, r.display)
		}
		if deferred {
			r.state = ltDeferred
		} else {
			r.state = ltDone
		}
	}
	for _, a := range call.Args {
		if av := w.plainIdentVar(a); av != nil && av == v {
			continue // the released operand itself
		}
		w.expr(a, sc)
	}
	return true
}

// callArgs walks a call's arguments: a tracked variable passed plainly
// either escapes (ownership transfer) or is a use, per the spec.
func (w *ltWalker) callArgs(call *ast.CallExpr, sc ltScope) {
	for _, a := range call.Args {
		if v := w.plainIdentVar(a); v != nil {
			if r, tracked := sc[v]; tracked {
				if w.spec.escapeOnArgPass {
					delete(sc, v)
				} else {
					w.useCheck(a.Pos(), r)
				}
				continue
			}
		}
		w.expr(a, sc)
	}
}

// expr scans an expression for uses, escapes, nested acquisitions and
// function literals.
func (w *ltWalker) expr(e ast.Expr, sc ltScope) {
	if e == nil {
		return
	}
	switch e := e.(type) {
	case *ast.Ident:
		if v := w.identVar(e); v != nil {
			if r, tracked := sc[v]; tracked {
				w.useCheck(e.Pos(), r)
			}
		}
	case *ast.FuncLit:
		w.escapeCaptured(e, sc)
		w.funcBody(e.Type, e.Body)
	case *ast.CallExpr:
		if w.releaseOp(e, sc, false) {
			return
		}
		if w.spec.acquire(w.pass, e) != "" {
			// Acquired in expression position: the result flows into
			// the surrounding expression, transferring ownership.
			w.callArgs(e, sc)
			return
		}
		w.expr(e.Fun, sc)
		w.callArgs(e, sc)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if v := w.plainIdentVar(e.X); v != nil {
				if _, tracked := sc[v]; tracked {
					delete(sc, v) // its address escapes
					return
				}
			}
		}
		w.expr(e.X, sc)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			val := el
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				w.expr(kv.Key, sc)
				val = kv.Value
			}
			if v := w.plainIdentVar(val); v != nil {
				if _, tracked := sc[v]; tracked {
					delete(sc, v) // stored into a composite: escapes
					continue
				}
			}
			w.expr(val, sc)
		}
	case *ast.SelectorExpr:
		w.expr(e.X, sc)
	case *ast.ParenExpr:
		w.expr(e.X, sc)
	case *ast.StarExpr:
		w.expr(e.X, sc)
	case *ast.IndexExpr:
		w.expr(e.X, sc)
		w.expr(e.Index, sc)
	case *ast.IndexListExpr:
		w.expr(e.X, sc)
		for _, i := range e.Indices {
			w.expr(i, sc)
		}
	case *ast.SliceExpr:
		w.expr(e.X, sc)
		w.expr(e.Low, sc)
		w.expr(e.High, sc)
		w.expr(e.Max, sc)
	case *ast.BinaryExpr:
		w.expr(e.X, sc)
		w.expr(e.Y, sc)
	case *ast.TypeAssertExpr:
		w.expr(e.X, sc)
	case *ast.KeyValueExpr:
		w.expr(e.Key, sc)
		w.expr(e.Value, sc)
	}
}

// escapeCaptured drops tracking for every resource a function literal
// captures: the closure now shares release duty and the lexical walk
// cannot order its execution.
func (w *ltWalker) escapeCaptured(lit *ast.FuncLit, sc ltScope) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if v, ok := w.pass.Info.Uses[id].(*types.Var); ok {
			delete(sc, v)
		}
		return true
	})
}

func (w *ltWalker) useCheck(pos token.Pos, r *ltRes) {
	if w.spec.useAfterFmt == "" || r.warned || r.state != ltDone {
		return
	}
	w.spec.report(w.pass, pos, w.spec.useAfterFmt, r.display)
	r.warned = true
}

// plainIdent unwraps e to a bare identifier, or nil.
func (w *ltWalker) plainIdent(e ast.Expr) *ast.Ident {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	return id
}

// plainIdentVar resolves e to the variable it names, when e is a bare
// identifier.
func (w *ltWalker) plainIdentVar(e ast.Expr) *types.Var {
	id := w.plainIdent(e)
	if id == nil {
		return nil
	}
	return w.identVar(id)
}

func (w *ltWalker) identVar(id *ast.Ident) *types.Var {
	if id.Name == "_" {
		return nil
	}
	if v, ok := w.pass.Info.Uses[id].(*types.Var); ok {
		return v
	}
	if v, ok := w.pass.Info.Defs[id].(*types.Var); ok {
		return v
	}
	return nil
}

// guardWeaken downgrades resources whose companion error variable the
// branch condition mentions: inside such a branch the resource may be
// the zero value (acquire failed), so a leak report would be false.
func (w *ltWalker) guardWeaken(cond ast.Expr, sc ltScope) {
	if !w.spec.errGuarded || cond == nil {
		return
	}
	mentioned := make(map[*types.Var]bool)
	ast.Inspect(cond, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := w.pass.Info.Uses[id].(*types.Var); ok {
				mentioned[v] = true
			}
		}
		return true
	})
	for _, r := range sc {
		if r.guard != nil && mentioned[r.guard] && r.state == ltLive {
			r.state = ltMaybe
		}
	}
}
