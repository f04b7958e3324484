// Package analysis is agilelint's static-analysis framework: a
// self-contained, stdlib-only reimplementation of the shape of
// golang.org/x/tools/go/analysis, sized for this repository. (The
// build environment is hermetic — no module downloads — so the x/tools
// framework itself is not available; the Analyzer/Pass/Diagnostic
// surface below mirrors it closely enough that porting the analyzers
// onto x/tools later is mechanical.)
//
// The suite machine-checks the simulator's core invariants — the
// properties the compiler cannot see and hand-written tests only spot
// check:
//
//   - virtualtime: the simulation domain (internal/sim clock domains
//     and every package whose costs are accounted in virtual time)
//     must never read the wall clock or a globally-seeded RNG.
//   - lockcheck: helpers documented "caller must hold" (or suffixed
//     Locked) must neither re-acquire their guard nor be called from
//     functions that never acquire it.
//   - sentinelerr: sentinel errors are matched with errors.Is, never
//     ==/!=, so wrapping at one layer cannot break matching at another.
//   - chanundermutex: no blocking channel operation or WaitGroup.Wait
//     while holding a mutex — the deadlock class that bites the
//     cluster/server serving layers.
//   - framerelease: every pooled wire.Frame acquisition reaches
//     Frame.Release exactly once on every path — no leak, no
//     double-release, no use after release (hard in wire/server).
//   - spanend: every Tracer.StartRoot/StartRemote/StartChild reaches
//     Tracer.End on every return path; zero SpanRefs are no-ops.
//   - ctxflow: request-path functions that receive a context.Context
//     propagate it — no context.Background()/TODO() below the
//     server/router entry points, no nil context arguments.
//   - atomicmix: a variable ever accessed through sync/atomic is never
//     read or written plainly.
//   - lockorder: the static lock-acquisition graph across packages is
//     acyclic, so no two code paths can deadlock by taking the same
//     locks in opposite orders.
//   - deadexport: every exported name of an internal package has a
//     non-test reference in the module. internal/testutil and
//     internal/analysis/analysistest are exempt. It needs the whole
//     module: on any partial load, one package under go vet -vettool
//     included, it reports nothing.
//
// The framework additionally reports stale //lint: directives — a
// suppression that suppresses nothing is itself a finding (analyzer
// name staledirective), so exceptions cannot outlive the code they
// excused.
//
// DESIGN.md §11 documents each invariant; cmd/agilelint is the
// multichecker that runs the suite over the tree.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow directives.
	Name string
	// Doc is a one-paragraph description of the invariant.
	Doc string
	// Run performs the check over one package, reporting findings
	// through the pass. Exactly one of Run and RunSuite is set.
	Run func(*Pass) error
	// RunSuite performs a whole-program check over every loaded
	// package at once (one pass per package), for invariants — like
	// lock ordering — that only exist across package boundaries.
	// Under the vet-tool protocol the go command hands agilelint one
	// package at a time, so a RunSuite analyzer sees a single pass
	// there and degrades to its intra-package findings (or, like
	// deadexport, to none).
	RunSuite func([]*Pass) error
	// WholeModule marks a RunSuite analyzer whose answer needs every
	// package of the module: it runs, and its directives are judged,
	// only on a load that holds them all (see Load).
	WholeModule bool
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	report func(Diagnostic)
}

// Reportf records a finding at pos. Findings may be suppressed by a
// matching //lint: directive (see directives.go).
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportHardf records a finding that no directive can suppress — used
// for invariants that are absolute, like wall-clock purity inside the
// simulation domain.
func (p *Pass) ReportHardf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
		Hard:     true,
	})
}

// A Diagnostic is one reported invariant violation.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Hard findings ignore //lint: directives.
	Hard bool
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// All returns the full agilelint suite.
func All() []*Analyzer {
	return []*Analyzer{
		VirtualTime,
		LockCheck,
		SentinelErr,
		ChanUnderMutex,
		FrameRelease,
		SpanEnd,
		CtxFlow,
		AtomicMix,
		LockOrder,
		DeadExport,
	}
}

// RunAnalyzers runs every analyzer over every package, applies
// directive suppression, reports stale directives, and returns the
// surviving diagnostics sorted by position. Test files (_test.go) are
// skipped: the invariants guard production code, and tests
// legitimately use wall clocks and raw comparisons. Analyzers with a
// RunSuite hook run once over all packages together so they can see
// cross-package structure.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	newPass := func(pkg *Package, a *Analyzer) *Pass {
		return &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.sourceFiles(),
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			report: func(d Diagnostic) {
				if d.Hard || !pkg.directives.allows(d.Analyzer, d.Pos) {
					out = append(out, d)
				}
			},
		}
	}
	for _, a := range analyzers {
		if a.Run == nil {
			continue
		}
		for _, pkg := range pkgs {
			if err := a.Run(newPass(pkg, a)); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	whole := len(pkgs) > 0
	for _, pkg := range pkgs {
		whole = whole && pkg.wholeModule
	}
	for _, a := range analyzers {
		if a.RunSuite == nil || a.WholeModule && !whole {
			continue
		}
		passes := make([]*Pass, len(pkgs))
		for i, pkg := range pkgs {
			passes[i] = newPass(pkg, a)
		}
		if err := a.RunSuite(passes); err != nil {
			return nil, fmt.Errorf("analysis: %s: %w", a.Name, err)
		}
	}
	// A directive that suppressed nothing — for an analyzer that did
	// run — is itself a finding. A whole-program analyzer given one
	// package (the vet-tool protocol) cannot see what its directives
	// excuse, so they are judged only on a whole-program run, and a
	// whole-module analyzer's only on a whole-module one.
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		switch {
		case a.RunSuite == nil:
			ran[a.Name] = true
		case a.WholeModule:
			ran[a.Name] = whole
		default:
			ran[a.Name] = len(pkgs) > 1
		}
	}
	for _, pkg := range pkgs {
		out = append(out, pkg.directives.stale(ran)...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		if out[i].Pos.Column != out[j].Pos.Column {
			return out[i].Pos.Column < out[j].Pos.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// calleeFunc resolves the function or method a call invokes, or nil
// when the callee is not a simple identifier/selector (indirect calls,
// conversions, builtins).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// funcPkgPath names the package a function belongs to ("" for
// builtins and interface methods of universe types).
func funcPkgPath(f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	return f.Pkg().Path()
}

// isMutexType reports whether t (possibly behind a pointer) is
// sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// mutexOpVar resolves a call of the form x.Lock() / x.mu.RLock() /
// pkg.mu.Unlock() to the mutex variable (or struct field) it operates
// on, together with the method name. It returns nil when the call is
// not a sync.Mutex / sync.RWMutex locking operation.
func mutexOpVar(info *types.Info, call *ast.CallExpr) (*types.Var, string, ast.Expr) {
	f := calleeFunc(info, call)
	if f == nil || funcPkgPath(f) != "sync" {
		return nil, "", nil
	}
	switch f.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock", "TryLock", "TryRLock":
	default:
		return nil, "", nil
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !isMutexType(sig.Recv().Type()) {
		return nil, "", nil
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, "", nil
	}
	base := ast.Unparen(sel.X)
	switch b := base.(type) {
	case *ast.SelectorExpr:
		if s := info.Selections[b]; s != nil {
			if v, ok := s.Obj().(*types.Var); ok {
				return v, f.Name(), base
			}
		}
		if v, ok := info.Uses[b.Sel].(*types.Var); ok {
			return v, f.Name(), base
		}
	case *ast.Ident:
		if v, ok := info.Uses[b].(*types.Var); ok {
			return v, f.Name(), base
		}
	}
	// The mutex is reached through an expression we cannot name
	// (map index, function result); return a nil var but still
	// classify the operation so callers can be conservative.
	return nil, f.Name(), base
}
