package analysis_test

import (
	"testing"

	"agilefpga/internal/analysis"
	"agilefpga/internal/analysis/analysistest"
)

func TestVirtualTime(t *testing.T) {
	analysistest.Run(t, analysis.VirtualTime,
		"virtualtime/internal/mcu",
		"virtualtime/internal/server",
	)
}

func TestLockCheck(t *testing.T) {
	analysistest.Run(t, analysis.LockCheck, "lockcheck/internal/core")
}

func TestSentinelErr(t *testing.T) {
	analysistest.Run(t, analysis.SentinelErr, "sentinelerr/internal/cluster")
}

func TestChanUnderMutex(t *testing.T) {
	analysistest.Run(t, analysis.ChanUnderMutex, "chanundermutex/internal/server")
}

func TestFrameRelease(t *testing.T) {
	analysistest.Run(t, analysis.FrameRelease,
		"framerelease/internal/server",
		"framerelease/internal/router",
		"framerelease/internal/client",
	)
}

func TestSpanEnd(t *testing.T) {
	analysistest.Run(t, analysis.SpanEnd, "spanend/internal/client")
}

func TestCtxFlow(t *testing.T) {
	analysistest.Run(t, analysis.CtxFlow, "ctxflow/internal/server")
}

func TestAtomicMix(t *testing.T) {
	analysistest.Run(t, analysis.AtomicMix, "atomicmix/internal/router")
}

// TestLockOrder loads the two leaf packages together with the shared
// core so the suite sees the whole graph: each leaf alone is
// cycle-free, and only the cross-package union closes the A/B cycle.
func TestLockOrder(t *testing.T) {
	analysistest.Run(t, analysis.LockOrder,
		"lockorder/internal/core",
		"lockorder/internal/server",
		"lockorder/internal/cluster",
	)
}

// TestDeadExport loads package lib with its only caller and an exempt
// testutil: the whole module, as deadexport needs it.
func TestDeadExport(t *testing.T) {
	analysistest.Run(t, analysis.DeadExport,
		"deadexport/internal/lib",
		"deadexport/internal/app",
		"deadexport/internal/testutil",
	)
}

// TestDeadExportInertOnOnePackage is the go vet -vettool shape: one
// package, whose callers the analyzer cannot see. It must report
// nothing rather than call every export dead.
func TestDeadExportInertOnOnePackage(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.Load(root, "./internal/analysis/testdata/src/deadexport/internal/lib")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.RunAnalyzers(pkgs, []*analysis.Analyzer{analysis.DeadExport})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("one-package run reported: %s", d)
	}
}

// TestDeadExportInertOnPartialLoad: ./internal/... leaves out the root
// package and cmd/, which call into internal packages, so the analyzer
// cannot tell a dead export from one only they use. It must report
// nothing, stale allow directives included.
func TestDeadExportInertOnPartialLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list -export over most of the module")
	}
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.Load(root, "./internal/...")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.RunAnalyzers(pkgs, []*analysis.Analyzer{analysis.DeadExport})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("./internal/... run reported: %s", d)
	}
}
