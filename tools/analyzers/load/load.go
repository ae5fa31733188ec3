// Package load type-checks Go packages for the m3vet analyzers
// without golang.org/x/tools. It shells out to `go list -export
// -json -deps` for package metadata and compiled export data, parses
// the target packages' non-test sources, and type-checks them with
// go/types using the gc importer fed from the export files — so every
// import (standard library or in-module) resolves from the build
// cache and the loader works fully offline.
//
// Only non-test files are loaded: m3vet checks production sources.
// Test files are where the parity suites deliberately compare floats
// bit for bit and where map-order nondeterminism cannot leak into
// fitted models, so they are out of scope by construction; for the
// testonly analyzer, a reference from a test is by definition not a
// caller.
//
// Program loads more than the patterns name: the rest of the module
// and every module nested under it (benchmark/ imports internal
// packages through a replace directive) come back as CallerOnly
// packages, so a whole-program analyzer sees every non-test reference
// while the per-package analyzers still check only the targets.
package load

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"m3/tools/analyzers/analysis"
)

// listPkg is the subset of `go list -json` output the loader reads.
type listPkg struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Error      *struct{ Err string }
}

// Program loads and type-checks the packages matching patterns,
// resolved relative to dir (the module root to analyze), plus, as
// CallerOnly packages, every other package of that module and of each
// module nested under dir. Dependencies are imported from compiled
// export data; the returned passes carry packages type-checked from
// source with full syntax and type information.
func Program(dir string, patterns ...string) ([]*analysis.Pass, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var names bytes.Buffer
	if err := goList(dir, &names, append([]string{"-f", "{{.ImportPath}}"}, patterns...)...); err != nil {
		return nil, err
	}
	targets := make(map[string]bool)
	for _, path := range strings.Fields(names.String()) {
		targets[path] = true
	}
	pkgs, err := module(dir, append([]string{"./..."}, patterns...))
	if err != nil {
		return nil, err
	}
	for _, p := range pkgs {
		p.CallerOnly = !targets[p.Pkg.Path()]
	}
	nested, err := nestedModules(dir)
	if err != nil {
		return nil, err
	}
	for _, m := range nested {
		callers, err := module(m, []string{"./..."})
		if err != nil {
			return nil, err
		}
		for _, p := range callers {
			p.CallerOnly = true
		}
		pkgs = append(pkgs, callers...)
	}
	return pkgs, nil
}

// nestedModules returns the root of every module below dir, skipping
// testdata, vendor and dot- or underscore-prefixed directories as the
// go command does.
func nestedModules(dir string) ([]string, error) {
	var roots []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() || path == dir {
			return nil
		}
		name := d.Name()
		if name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
			roots = append(roots, path)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("load: finding nested modules: %w", err)
	}
	return roots, nil
}

// goList runs `go list args...` in dir, writing its stdout to out.
func goList(dir string, out *bytes.Buffer, args ...string) error {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	// GOWORK=off keeps the analysis scoped to dir's own module even
	// when dir sits inside a workspace (the repo root has a go.work
	// tying the main module to this tools module; analysistest
	// testdata modules are not workspace members at all). GOPROXY=off
	// guarantees no network: everything resolves from the module
	// itself, local replace directives and the standard library.
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOPROXY=off")
	var stderr bytes.Buffer
	cmd.Stdout = out
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("load: go list %s in %s: %v\n%s", strings.Join(args, " "), dir, err, stderr.String())
	}
	return nil
}

// module type-checks the packages of dir's module that match patterns.
func module(dir string, patterns []string) ([]*analysis.Pass, error) {
	var out bytes.Buffer
	if err := goList(dir, &out, append([]string{"-export", "-json", "-deps"}, patterns...)...); err != nil {
		return nil, err
	}

	exports := make(map[string]string)
	var targets []listPkg
	dec := json.NewDecoder(&out)
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("load: decoding go list output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("load: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			targets = append(targets, p)
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("load: no export data for %q", path)
		}
		return os.Open(f)
	})

	var pkgs []*analysis.Pass
	for _, p := range targets {
		var files []*ast.File
		for _, gf := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, gf), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("load: %w", err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
		}
		var typeErrs []error
		conf := types.Config{
			Importer: imp,
			Error:    func(err error) { typeErrs = append(typeErrs, err) },
		}
		tpkg, err := conf.Check(p.ImportPath, fset, files, info)
		if len(typeErrs) > 0 {
			return nil, fmt.Errorf("load: type-checking %s: %w", p.ImportPath, errors.Join(typeErrs...))
		}
		if err != nil {
			return nil, fmt.Errorf("load: type-checking %s: %w", p.ImportPath, err)
		}
		pkgs = append(pkgs, &analysis.Pass{Fset: fset, Files: files, Pkg: tpkg, TypesInfo: info})
	}
	return pkgs, nil
}
