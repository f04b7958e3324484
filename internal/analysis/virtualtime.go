package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// simDomainPackages are the packages whose cost accounting lives
// entirely in virtual time (paper §3's deterministic config/IO/execute
// cost model, realized by internal/sim clock domains). A wall-clock
// read anywhere in here silently corrupts every latency number the
// simulator reports, so the virtualtime analyzer treats these as a
// hard no-directive zone. Membership is by final import-path element
// under an internal/ tree, which also lets analyzer testdata mirror
// the layout.
var simDomainPackages = map[string]bool{
	"sim":       true,
	"core":      true,
	"mcu":       true,
	"fpga":      true,
	"memory":    true,
	"pci":       true,
	"replace":   true,
	"sched":     true,
	"compress":  true,
	"bitstream": true,
	"algos":     true,
}

// internalElem extracts the path below the last "/internal/" marker
// ("" when the package is not under an internal tree). Analyzers key
// package classification on this so both the real tree
// ("agilefpga/internal/mcu") and analyzer testdata
// (".../testdata/src/virtualtime/internal/mcu") classify identically.
func internalElem(pkgPath string) string {
	const marker = "/internal/"
	if i := strings.LastIndex(pkgPath, marker); i >= 0 {
		return pkgPath[i+len(marker):]
	}
	if after, ok := strings.CutPrefix(pkgPath, "internal/"); ok {
		return after
	}
	return ""
}

// inSimDomain classifies an import path into or out of the hard
// virtual-time zone.
func inSimDomain(pkgPath string) bool {
	return simDomainPackages[internalElem(pkgPath)]
}

// wallClockFuncs are the package time functions that read or schedule
// against the host's wall clock. Pure value manipulation (Duration
// arithmetic, Time formatting) stays legal everywhere.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Since":     true,
	"Until":     true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
}

// VirtualTime forbids wall-clock reads and ambient RNG in the
// simulation domain, and requires an explicit //lint:wallclock
// directive everywhere else.
var VirtualTime = &Analyzer{
	Name: "virtualtime",
	Doc: `forbid wall-clock reads in the simulation's virtual-time domain

The simulator's entire value rests on deterministic virtual time:
internal/sim clock domains turn cycle counts into time, never the host
clock. Inside the simulation domain (sim, core, mcu, fpga, memory,
pci, replace, sched, compress, bitstream, algos) any call to time.Now,
time.Sleep, time.Since and friends — or to math/rand's globally seeded
generators — is an error no directive can silence. Wall-facing
packages (server, client, cluster deadline paths, cmd/*) may read the
wall clock, but each site must carry a //lint:wallclock directive so
the exception is explicit and reviewable.`,
	Run: runVirtualTime,
}

func runVirtualTime(pass *Pass) error {
	sim := inSimDomain(pass.Pkg.Path())
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
			if !ok {
				return true
			}
			switch funcPkgPath(fn) {
			case "time":
				if !wallClockFuncs[fn.Name()] {
					return true
				}
				if sim {
					pass.ReportHardf(sel.Pos(),
						"time.%s reads the wall clock inside the simulation domain (package %s): virtual time must come from internal/sim clock domains, and //lint:wallclock cannot override this here",
						fn.Name(), pass.Pkg.Name())
				} else {
					pass.Reportf(sel.Pos(),
						"time.%s reads the wall clock: annotate the site with //lint:wallclock if this code is genuinely wall-facing",
						fn.Name())
				}
			case "math/rand", "math/rand/v2":
				if sim {
					pass.ReportHardf(sel.Pos(),
						"%s.%s in the simulation domain (package %s): simulation randomness must be deterministic — use sim.NewRNG with an explicit seed",
						funcPkgPath(fn), fn.Name(), pass.Pkg.Name())
				}
			}
			return true
		})
	}
	return nil
}
