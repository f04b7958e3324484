package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

const wirePkgPath = "agilefpga/internal/wire"

// frameAcquireFuncs are the internal/wire entry points that hand the
// caller a pooled-buffer Frame whose Release duty travels with the
// value.
var frameAcquireFuncs = map[string]bool{
	"ReadRequestFrame":  true,
	"ReadResponseFrame": true,
}

// frameHardPackages are the packages where a frame-lifecycle mistake
// corrupts live traffic (the zero-copy read paths themselves: the wire
// codec, the server's request loop and the client's response loop), so
// no directive may excuse one. Membership keys on the last "/internal/"
// path element, like the virtualtime hard zone.
var frameHardPackages = map[string]bool{
	"wire":   true,
	"server": true,
	"client": true,
}

// FrameRelease enforces the zero-copy payload lifecycle: every pooled
// wire.Frame acquisition reaches Frame.Release exactly once on every
// path.
var FrameRelease = &Analyzer{
	Name: "framerelease",
	Doc: `every pooled wire.Frame acquisition must reach Frame.Release on all paths

The zero-copy request path (DESIGN §13) aliases request payloads
directly onto pooled frame buffers: wire.ReadRequestFrame and
ReadResponseFrame return a Frame that pins one pool buffer until
Frame.Release re-pools it. A path that drops the frame leaks the
buffer; releasing twice re-pools a buffer another request may already
own; touching a frame after Release reads memory the pool may have
handed out again. The analyzer tracks every acquisition (and every
Frame-typed parameter, since argument passing transfers release duty)
lexically through branches and loops and reports leaks,
double-releases and uses after release. Ownership transfers — passing
the frame to a callee, capturing it in a closure, returning or storing
it — end tracking at the transfer point. Error-path returns guarded by
the acquisition's own error result are exempt: a failed read returns
the zero Frame, whose Release is a no-op. A continue, or a break out of
a loop, leaks a frame acquired in the loop's body that is still live.
Inside internal/wire, internal/server and internal/client the findings
are hard — no //lint:allow can excuse them; elsewhere a justified
//lint:allow framerelease is accepted.`,
	Run: runFrameRelease,
}

func runFrameRelease(pass *Pass) error {
	hard := frameHardPackages[internalElem(pass.Pkg.Path())]
	spec := &lifetimeSpec{
		noun: "frame",
		acquire: func(p *Pass, call *ast.CallExpr) string {
			f := calleeFunc(p.Info, call)
			if f == nil || funcPkgPath(f) != wirePkgPath || !frameAcquireFuncs[f.Name()] {
				return ""
			}
			return "wire." + f.Name()
		},
		release:         frameReleaseVar,
		trackParam:      func(p *Pass, t types.Type) bool { return isWireFrameType(t) },
		errGuarded:      true,
		escapeOnArgPass: true,
		report: func(p *Pass, pos token.Pos, format string, args ...any) {
			if hard {
				p.ReportHardf(pos, format+" (hard in internal/wire, internal/server and internal/client: no directive can excuse a frame lifecycle bug on the zero-copy path)", args...)
			} else {
				p.Reportf(pos, format, args...)
			}
		},
		discardFmt:    "result of %s is discarded: the pooled frame buffer can never be released — bind the Frame and call Release",
		leakReturnFmt: "%s is not released before the return at line %d: the pooled buffer leaks — every acquisition must reach Frame.Release",
		leakEndFmt:    "%s is not released on every path: the pooled buffer leaks — every acquisition must reach Frame.Release",
		doubleFmt:     "frame %s released twice: the second Release re-pools a buffer another request may already own",
		useAfterFmt:   "frame %s used after Release: the pooled buffer may already back another request's payload",
	}
	return runLifetime(pass, spec)
}

// frameReleaseVar resolves fr.Release() to the frame variable, or nil.
func frameReleaseVar(p *Pass, call *ast.CallExpr) *types.Var {
	f := calleeFunc(p.Info, call)
	if f == nil || funcPkgPath(f) != wirePkgPath || f.Name() != "Release" {
		return nil
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !isWireFrameType(sig.Recv().Type()) {
		return nil
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
		if v, ok := p.Info.Uses[id].(*types.Var); ok {
			return v
		}
	}
	return nil
}

// isWireFrameType reports whether t (possibly behind a pointer) is
// wire.Frame.
func isWireFrameType(t types.Type) bool {
	named, ok := deref(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == wirePkgPath && obj.Name() == "Frame"
}
