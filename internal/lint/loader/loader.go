// Package loader loads and type-checks Go packages from source without
// shelling out to the go tool and without network access. It resolves
// imports to GOROOT/src for the standard library and to the enclosing
// module tree for module-local packages, which is all the almvet suite
// needs: the repo has no third-party dependencies.
//
// The loader backs both almvet and the analysistest harness.
package loader

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	Path  string
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// TypeErrors collects type-checker complaints. The target package of
	// an analysis should be error-free; dependency packages tolerate
	// errors (their bodies are not even type-checked).
	TypeErrors []error
}

// Loader caches type-checked packages for one module tree.
type Loader struct {
	Fset       *token.FileSet
	ModuleRoot string
	ModulePath string

	ctx  build.Context
	pkgs map[string]*Package // keyed by import path; nil entry = in progress
}

// New returns a loader rooted at the module containing dir. It reads the
// module path from go.mod.
func New(dir string) (*Loader, error) {
	root, modpath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	ctx := build.Default
	ctx.CgoEnabled = false // select pure-Go variants of stdlib packages
	return &Loader{
		Fset:       token.NewFileSet(),
		ModuleRoot: root,
		ModulePath: modpath,
		ctx:        ctx,
		pkgs:       make(map[string]*Package),
	}, nil
}

// findModule walks up from dir to the nearest go.mod.
func findModule(dir string) (root, modpath string, err error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, rerr := os.ReadFile(filepath.Join(d, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("loader: %s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("loader: no go.mod above %s", dir)
		}
		d = parent
	}
}

// dirFor maps an import path to a source directory.
func (l *Loader) dirFor(path string) (string, error) {
	if path == l.ModulePath {
		return l.ModuleRoot, nil
	}
	if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		return filepath.Join(l.ModuleRoot, filepath.FromSlash(rest)), nil
	}
	for _, d := range []string{
		filepath.Join(runtime.GOROOT(), "src", filepath.FromSlash(path)),
		// Stdlib packages vendor golang.org/x dependencies here.
		filepath.Join(runtime.GOROOT(), "src", "vendor", filepath.FromSlash(path)),
	} {
		if fi, err := os.Stat(d); err == nil && fi.IsDir() {
			return d, nil
		}
	}
	return "", fmt.Errorf("loader: cannot resolve import %q (not stdlib, not under module %s)", path, l.ModulePath)
}

// Load type-checks the package at the given import path (and,
// transitively, its dependencies). Results are cached.
func (l *Loader) Load(path string) (*Package, error) {
	if path == "unsafe" {
		return &Package{Path: path, Types: types.Unsafe}, nil
	}
	if p, ok := l.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("loader: import cycle through %q", path)
		}
		return p, nil
	}
	dir, err := l.dirFor(path)
	if err != nil {
		return nil, err
	}
	return l.load(dir, path, path != "" && !l.isTarget(path))
}

// isTarget reports whether path belongs to the enclosing module (those
// packages get full-body type-checking; dependencies only need their
// exported shape).
func (l *Loader) isTarget(path string) bool {
	return path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/")
}

// LoadDir type-checks the package rooted at an explicit directory — used
// for analysistest fixtures under testdata, which have no import path of
// their own. asPath names the resulting types.Package.
func (l *Loader) LoadDir(dir, asPath string) (*Package, error) {
	return l.load(dir, asPath, false)
}

func (l *Loader) load(dir, path string, depOnly bool) (*Package, error) {
	l.pkgs[path] = nil // cycle marker
	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		if _, nogo := err.(*build.NoGoError); !nogo {
			delete(l.pkgs, path)
			return nil, fmt.Errorf("loader: %s: %v", dir, err)
		}
	}
	names := append([]string{}, bp.GoFiles...)
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			delete(l.pkgs, path)
			return nil, err
		}
		files = append(files, f)
	}
	pkg := &Package{Path: path, Dir: dir, Files: files}
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer:         (*loaderImporter)(l),
		IgnoreFuncBodies: depOnly,
		FakeImportC:      true,
		Error:            func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	pkg.Types, _ = conf.Check(path, l.Fset, files, pkg.Info) // errors collected above
	l.pkgs[path] = pkg
	return pkg, nil
}

// loaderImporter adapts Loader to types.Importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	p, err := (*Loader)(li).Load(path)
	if err != nil {
		return nil, err
	}
	if p.Types == nil {
		return nil, fmt.Errorf("loader: %s failed to type-check", path)
	}
	return p.Types, nil
}
