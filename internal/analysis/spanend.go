package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// tracePkgPath is the real tracing package; analyzer testdata imports
// the same package, so the exact path is correct in both contexts.
const tracePkgPath = "agilefpga/internal/trace"

// spanStartFuncs are the internal/trace entry points that open a span
// the creator must close with Tracer.End. Tracer.Add is absent on
// purpose: it records an already-timed span and returns a ref that
// needs no End.
var spanStartFuncs = map[string]bool{
	"StartRoot":   true,
	"StartRemote": true,
	"StartChild":  true,
}

// SpanEnd enforces the span lifecycle: every started span reaches
// Tracer.End on every return path.
var SpanEnd = &Analyzer{
	Name: "spanend",
	Doc: `every Tracer.StartRoot/StartRemote/StartChild must reach Tracer.End

A started span that is never ended stays open in the tracer forever:
it never reaches the tail-capture rings, its parent's child timings
lie, and under head sampling it pins per-trace state for the process
lifetime (DESIGN §14). The analyzer tracks every SpanRef returned by a
Start call lexically through branches and loops and reports return
paths that skip Tracer.End, plus refs ended twice (a double End
records the span twice). Zero SpanRefs — from a nil tracer or a
sampled-out trace — make both Start and End no-ops, so only refs that
demonstrably came from a Start call are tracked. Passing a ref to
another call (for child-span creation) is a use, not a transfer: End
duty stays with the creator. Returning, storing or capturing the ref
transfers that duty and ends tracking. Suppress a deliberate
exception with //lint:allow spanend and a justification.`,
	Run: runSpanEnd,
}

func runSpanEnd(pass *Pass) error {
	spec := &lifetimeSpec{
		noun: "span ref",
		acquire: func(p *Pass, call *ast.CallExpr) string {
			f := calleeFunc(p.Info, call)
			if f == nil || funcPkgPath(f) != tracePkgPath || !spanStartFuncs[f.Name()] {
				return ""
			}
			if !isTracerMethod(f) {
				return ""
			}
			return "Tracer." + f.Name()
		},
		release: spanEndVar,
		report: func(p *Pass, pos token.Pos, format string, args ...any) {
			p.Reportf(pos, format, args...)
		},
		discardFmt:    "result of %s is discarded: the span can never be ended — bind the SpanRef and call Tracer.End",
		leakReturnFmt: "%s is not ended before the return at line %d: the span stays open forever — every Start must reach Tracer.End",
		leakEndFmt:    "%s is not ended on every path: the span stays open forever — every Start must reach Tracer.End",
		doubleFmt:     "span ref %s passed to Tracer.End twice: the span would be recorded twice",
	}
	return runLifetime(pass, spec)
}

// spanEndVar resolves t.End(ref, status) to the ref variable, or nil.
func spanEndVar(p *Pass, call *ast.CallExpr) *types.Var {
	f := calleeFunc(p.Info, call)
	if f == nil || funcPkgPath(f) != tracePkgPath || f.Name() != "End" || !isTracerMethod(f) {
		return nil
	}
	if len(call.Args) == 0 {
		return nil
	}
	if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
		if v, ok := p.Info.Uses[id].(*types.Var); ok {
			return v
		}
	}
	return nil
}

// isTracerMethod reports whether f is a method of trace.Tracer.
func isTracerMethod(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	named, ok := deref(sig.Recv().Type()).(*types.Named)
	return ok && named.Obj().Name() == "Tracer"
}
