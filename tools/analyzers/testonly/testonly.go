// Package testonly reports exported package-level identifiers under
// internal/ that no non-test code references.
//
// The invariant: the engine holds only code that the paper's path,
// the daemons and the benchmark run. An exported function, variable,
// constant or type in an internal package that only tests call is
// surface kept alive by its own tests; it is deleted, or moved into
// the package's _test.go files when a test needs it as a fixture or
// oracle. A deliberate test seam takes a
// `//m3vet:allow testonly -- reason` directive on or above its
// declaration.
//
// The rule is whole-program. A reference counts from any non-test
// file of any loaded package (the root package, cmd/, examples/,
// internal/ itself) and from CallerOnly packages, which is how a
// nested module such as benchmark/ keeps alive what it alone imports.
// References inside the identifier's own declaration do not count,
// and for a type neither do its own methods, so a type used only by
// its methods' receivers is reported. References are matched by
// package path and name, not by types.Object identity: each loaded
// module imports its dependencies from export data, so one identifier
// appears as a different object in every module that uses it.
//
// Methods are out of scope: interface satisfaction and the root
// package's type aliases make them reachable in ways a per-name scan
// cannot see.
package testonly

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"m3/tools/analyzers/analysis"
)

// Analyzer reports exported internal identifiers with no non-test
// reference.
var Analyzer = &analysis.Analyzer{
	Name: "testonly",
	Doc: "reports exported package-level funcs, vars, consts and types under " +
		"internal/ that no non-test code references (nested modules such as " +
		"benchmark/ count as callers; methods are out of scope); delete them, " +
		"move them into _test.go, or mark a deliberate seam with " +
		"//m3vet:allow testonly",
	RunAll: run,
}

// decl is one candidate identifier and the source ranges that make up
// its own declaration.
type decl struct {
	pass  *analysis.Pass
	ident *ast.Ident
	own   [][2]token.Pos
	used  bool
}

func run(passes []*analysis.Pass) error {
	decls := make(map[string]*decl)
	for _, p := range passes {
		if !p.CallerOnly && isInternal(p.Pkg.Path()) {
			collect(p, decls)
		}
	}
	for _, p := range passes {
		for id, obj := range p.TypesInfo.Uses {
			if d := decls[key(obj)]; d != nil && !(d.pass == p && d.inside(id.Pos())) {
				d.used = true
			}
		}
	}
	for _, d := range decls {
		if !d.used {
			d.pass.Reportf(d.ident.Pos(), "%s.%s has no caller outside tests", d.pass.Pkg.Name(), d.ident.Name)
		}
	}
	return nil
}

// isInternal reports whether path lies under an internal/ directory.
func isInternal(path string) bool {
	return strings.Contains("/"+path+"/", "/internal/")
}

// collect records the exported package-level declarations of p.
func collect(p *analysis.Pass, decls map[string]*decl) {
	add := func(id *ast.Ident, from, to token.Pos) {
		if id.IsExported() {
			decls[p.Pkg.Path()+"."+id.Name] = &decl{pass: p, ident: id, own: [][2]token.Pos{{from, to}}}
		}
	}
	var methods []*ast.FuncDecl
	for _, f := range p.Files {
		for _, n := range f.Decls {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv == nil {
					add(n.Name, n.Pos(), n.End())
				} else {
					methods = append(methods, n)
				}
			case *ast.GenDecl:
				for _, spec := range n.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name, s.Pos(), s.End())
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, s.Pos(), s.End())
						}
					}
				}
			}
		}
	}
	// A method belongs to its receiver type's declaration.
	for _, m := range methods {
		if name := receiverType(m); name != nil {
			if d := decls[p.Pkg.Path()+"."+name.Name]; d != nil && d.pass == p {
				d.own = append(d.own, [2]token.Pos{m.Pos(), m.End()})
			}
		}
	}
}

// receiverType returns the type name in m's receiver, looking through
// a pointer and type parameters.
func receiverType(m *ast.FuncDecl) *ast.Ident {
	t := m.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	id, _ := t.(*ast.Ident)
	return id
}

// inside reports whether pos lies in d's own declaration.
func (d *decl) inside(pos token.Pos) bool {
	for _, r := range d.own {
		if r[0] <= pos && pos < r[1] {
			return true
		}
	}
	return false
}

// key names a package-level object as "path.Name", or returns "" for
// anything else (methods, fields, locals, universe objects).
func key(obj types.Object) string {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	pkg := obj.Pkg()
	if pkg == nil || pkg.Scope().Lookup(obj.Name()) != obj {
		return ""
	}
	return pkg.Path() + "." + obj.Name()
}
