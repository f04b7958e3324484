package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// metricsPkgPath, tracePkgPath and simPkgPath are the real packages
// the invariant connects; analyzer testdata imports the same packages,
// so exact paths are correct in both contexts.
const (
	metricsPkgPath = "agilefpga/internal/metrics"
	tracePkgPath   = "agilefpga/internal/trace"
	simPkgPath     = "agilefpga/internal/sim"
)

// metricsObservationFuncs are the internal/metrics entry points an
// instrumented code path calls while recording: series constructors
// and the mutating observation methods.
var metricsObservationFuncs = map[string]bool{
	"Counter":       true,
	"Gauge":         true,
	"Histogram":     true,
	"HistogramWith": true,
	"Observe":       true,
	"Add":           true,
	"Inc":           true,
	"Dec":           true,
	"Set":           true,
}

// traceObservationFuncs are the internal/trace entry points that
// record spans: the same passivity rule applies — a span is a record
// of virtual time already spent, so building one must never spend it.
var traceObservationFuncs = map[string]bool{
	"StartRoot":   true,
	"StartRemote": true,
	"StartChild":  true,
	"Add":         true,
	"End":         true,
}

// clockAdvancingFuncs are the internal/sim functions that move a
// virtual clock domain.
var clockAdvancingFuncs = map[string]bool{
	"Advance": true,
}

// PassiveMetrics enforces that telemetry is an observer, never an
// actor: the arguments of a metrics observation or trace span
// recording must not advance a virtual clock domain.
// TestMetricsChangeNoVirtualTime and TestTracingNoVirtualTime
// spot-check this property dynamically for single paths; the analyzer
// proves the syntactic form of it everywhere — no call reachable from
// an observation's argument list may be (*sim.Domain).Advance.
var PassiveMetrics = &Analyzer{
	Name: "passivemetrics",
	Doc: `metrics observation and trace recording must not advance virtual time

Every instrumented phase computes its virtual-time cost first and then
observes the already-computed value; writing
hist.Observe(dom.Advance(n)) — or stamping a span with
VirtPS: uint64(dom.Advance(n)) — would make telemetry perturb the very
quantity it measures, breaking the paper's deterministic cost model
whenever metrics or tracing are enabled. The analyzer flags any
(*sim.Domain).Advance call nested inside the argument
expressions of an internal/metrics observation or internal/trace span
call.`,
	Run: runPassiveMetrics,
}

func runPassiveMetrics(pass *Pass) error {
	reported := make(map[token.Pos]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(pass.Info, call)
			if callee == nil {
				return true
			}
			var kind string
			switch pkg := funcPkgPath(callee); {
			case pkg == metricsPkgPath && metricsObservationFuncs[callee.Name()]:
				kind = "metrics"
			case pkg == tracePkgPath && traceObservationFuncs[callee.Name()]:
				kind = "trace"
			default:
				return true
			}
			for _, arg := range call.Args {
				ast.Inspect(arg, func(inner ast.Node) bool {
					ic, ok := inner.(*ast.CallExpr)
					if !ok {
						return true
					}
					adv := calleeFunc(pass.Info, ic)
					if adv == nil || funcPkgPath(adv) != simPkgPath || !clockAdvancingFuncs[adv.Name()] {
						return true
					}
					sig, ok := adv.Type().(*types.Signature)
					if !ok || sig.Recv() == nil {
						return true
					}
					if named, ok := deref(sig.Recv().Type()).(*types.Named); !ok || named.Obj().Name() != "Domain" {
						return true
					}
					if !reported[ic.Pos()] {
						reported[ic.Pos()] = true
						pass.Reportf(ic.Pos(),
							"(*sim.Domain).%s advances virtual time inside the arguments of %s call %s.%s — observation must be passive: compute the time first, then observe it",
							adv.Name(), kind, recvDisplay(call), callee.Name())
					}
					return true
				})
			}
			return true
		})
	}
	return nil
}

// recvDisplay names the metrics value being called, for the message.
func recvDisplay(call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		s := types.ExprString(sel.X)
		if len(s) > 40 {
			s = s[:37] + "..."
		}
		return s
	}
	return "metrics"
}
