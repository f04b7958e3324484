package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeadExport reports exported names of internal packages that nothing
// outside tests references.
var DeadExport = &Analyzer{
	Name: "deadexport",
	Doc: `an exported name of an internal package must have a non-test reference in the module

An internal package's exported func, method, type, var or const that
no non-test file references is code only its own tests keep alive:
delete it, or move it into the test files that use it. Each package is
type-checked on its own, so uses are matched on a stable key —
types.Func.FullName for funcs and methods, package path + name for the
rest. A method that lets its type satisfy an interface the program
mentions (heap.Interface, error, a local interface) counts as used, as
does a method std looks up dynamically (String, Error, Format,
MarshalJSON and the like). internal/testutil and
internal/analysis/analysistest exist for tests and are exempt; the
root package's public API and cmd/ are not internal, and agilelint
testdata lies outside ./..., so none of them is checked. The answer
needs the whole module, so the analyzer reports nothing on a partial
load: under go vet -vettool, which hands agilelint one package at a
time, or over a pattern such as ./internal/... that leaves out the
root package and cmd/.`,
	RunSuite:    runDeadExport,
	WholeModule: true,
}

// deadExportExempt lists the internal packages (below their last
// "/internal/") whose exports exist for tests.
var deadExportExempt = map[string]bool{
	"testutil":              true,
	"analysis/analysistest": true,
}

// dynamicMethods are the methods std finds by a type assertion on an
// interface{} value (fmt, errors, encoding/json, io), so no program
// text names the interface that uses them.
var dynamicMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true,
	"Error": true, "Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"WriteTo": true, "ReadFrom": true,
}

func runDeadExport(passes []*Pass) error {
	used := make(map[string]bool)
	ifaces := make(map[string]map[string]string) // interface → method name → signature
	for _, p := range passes {
		for _, obj := range p.Info.Uses {
			if k := deKey(obj); k != "" {
				used[k] = true
			}
		}
		seen := make(map[types.Type]bool)
		for _, tv := range p.Info.Types {
			collectInterfaces(tv.Type, seen, ifaces)
		}
		for _, objs := range []map[*ast.Ident]types.Object{p.Info.Defs, p.Info.Uses} {
			for _, obj := range objs {
				if obj != nil {
					collectInterfaces(obj.Type(), seen, ifaces)
				}
			}
		}
	}
	for _, p := range passes {
		elem := internalElem(p.Pkg.Path())
		if elem == "" || deadExportExempt[elem] {
			continue
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				for _, id := range declaredNames(d) {
					obj := p.Info.Defs[id]
					if obj == nil || !obj.Exported() || used[deKey(obj)] {
						continue
					}
					if fn, ok := obj.(*types.Func); ok && satisfiesUsedInterface(fn, ifaces) {
						continue
					}
					p.Reportf(id.Pos(), "exported %s %s has no non-test reference in the module", deKind(obj), deDisplay(obj))
				}
			}
		}
	}
	return nil
}

// declaredNames returns the identifiers a top-level declaration
// introduces.
func declaredNames(d ast.Decl) []*ast.Ident {
	switch d := d.(type) {
	case *ast.FuncDecl:
		return []*ast.Ident{d.Name}
	case *ast.GenDecl:
		var ids []*ast.Ident
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				ids = append(ids, s.Name)
			case *ast.ValueSpec:
				ids = append(ids, s.Names...)
			}
		}
		return ids
	}
	return nil
}

// deKey names a package-level object the same way in every package's
// type-check, or "" for locals, fields and universe objects.
func deKey(obj types.Object) string {
	if f, ok := obj.(*types.Func); ok {
		return f.Origin().FullName()
	}
	if obj.Pkg() == nil || obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

func deKind(obj types.Object) string {
	switch o := obj.(type) {
	case *types.Func:
		if o.Type().(*types.Signature).Recv() != nil {
			return "method"
		}
		return "func"
	case *types.TypeName:
		return "type"
	case *types.Const:
		return "const"
	}
	return "var"
}

// deDisplay prints Type.Method for methods and the bare name otherwise.
func deDisplay(obj types.Object) string {
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			if n := receiverNamed(recv.Type()); n != nil {
				return n.Obj().Name() + "." + f.Name()
			}
		}
	}
	return obj.Name()
}

func receiverNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// collectInterfaces records every non-empty interface reachable from t
// through composite types, keyed by its printed form so the copies
// each package's type-check makes of one interface collapse.
func collectInterfaces(t types.Type, seen map[types.Type]bool, out map[string]map[string]string) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		if it, ok := t.Underlying().(*types.Interface); ok {
			addInterface(types.TypeString(t, nil), it, out)
		}
		for i := 0; i < t.TypeArgs().Len(); i++ {
			collectInterfaces(t.TypeArgs().At(i), seen, out)
		}
	case *types.Alias:
		collectInterfaces(types.Unalias(t), seen, out)
	case *types.Interface:
		addInterface(types.TypeString(t, nil), t, out)
	case interface{ Elem() types.Type }: // pointer, slice, array, chan, map
		if m, ok := t.(*types.Map); ok {
			collectInterfaces(m.Key(), seen, out)
		}
		collectInterfaces(t.Elem(), seen, out)
	case *types.Signature:
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tup.Len(); i++ {
				collectInterfaces(tup.At(i).Type(), seen, out)
			}
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			collectInterfaces(t.Field(i).Type(), seen, out)
		}
	}
}

func addInterface(key string, it *types.Interface, out map[string]map[string]string) {
	if it.NumMethods() == 0 || out[key] != nil {
		return
	}
	ms := make(map[string]string, it.NumMethods())
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		ms[m.Name()] = sigKey(m.Type().(*types.Signature))
	}
	out[key] = ms
}

// satisfiesUsedInterface reports whether fn is a method std looks up
// dynamically, or one through which its receiver type (or a pointer to
// it) implements a collected interface. Signatures are compared as
// printed strings, since each package holds its own copy of every
// imported type.
func satisfiesUsedInterface(fn *types.Func, ifaces map[string]map[string]string) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	if dynamicMethods[fn.Name()] {
		return true
	}
	named := receiverNamed(recv.Type())
	if named == nil {
		return false
	}
	mset := types.NewMethodSet(types.NewPointer(named))
	have := make(map[string]string, mset.Len())
	for i := 0; i < mset.Len(); i++ {
		m := mset.At(i).Obj()
		have[m.Name()] = sigKey(m.Type().(*types.Signature))
	}
	want := sigKey(fn.Type().(*types.Signature))
	for _, ms := range ifaces {
		if ms[fn.Name()] != want {
			continue
		}
		all := true
		for name, sig := range ms {
			if have[name] != sig {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// sigKey prints a signature's parameter and result types without their
// names, spelling the empty interface "any" however it was written.
func sigKey(sig *types.Signature) string {
	var b strings.Builder
	for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tup.Len(); i++ {
			b.WriteString(strings.ReplaceAll(types.TypeString(tup.At(i).Type(), nil), "interface{}", "any"))
			b.WriteByte(',')
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}
