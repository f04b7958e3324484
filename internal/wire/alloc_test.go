package wire

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"agilefpga/internal/testutil"
)

// requestPathOps lists, by benchmark, the bodies of every
// Benchmark(Server|Client)RequestPath* in this package.
func requestPathOps(tb testing.TB) map[string][]pathOp {
	ops := map[string][]pathOp{
		"BenchmarkClientRequestPath":       {clientRequestPathOp(tb, TraceContext{})},
		"BenchmarkServerRequestPathTraced": {serverRequestPathOp(tb, nil, sampledTrace)},
		"BenchmarkClientRequestPathTraced": {clientRequestPathOp(tb, sampledTrace)},
	}
	for _, bc := range serverRequestPathCases {
		ops["BenchmarkServerRequestPath"] = append(ops["BenchmarkServerRequestPath"],
			serverRequestPathOp(tb, bc.next, TraceContext{}))
	}
	return ops
}

// TestRequestPathAllocs holds the zero-copy request path — the body of
// every Benchmark(Server|Client)RequestPath* — at 0 allocations per
// iteration. It parses the package's test files, so a new RequestPath
// benchmark that is not listed in requestPathOps fails here rather
// than go ungated. Under -race sync.Pool drops a share of its Puts, so
// the pooled buffers are reallocated there by design; the count is
// exact only without it.
func TestRequestPathAllocs(t *testing.T) {
	ops := requestPathOps(t)
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv != nil {
					continue
				}
				name := fd.Name.Name
				if (strings.HasPrefix(name, "BenchmarkServerRequestPath") ||
					strings.HasPrefix(name, "BenchmarkClientRequestPath")) && ops[name] == nil {
					t.Errorf("%s is not listed in requestPathOps, so its allocations are not held at 0", name)
				}
			}
		}
	}
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops Puts under -race: the pooled path allocates there by design")
	}
	for name, bodies := range ops {
		for i, op := range bodies {
			if n := testing.AllocsPerRun(1000, op.run); n != 0 {
				t.Errorf("%s body %d allocates %.2f times per iteration, want 0", name, i, n)
			}
		}
	}
}
