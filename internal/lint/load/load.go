// Package load turns Go package patterns into parsed, type-checked
// packages using only the standard library: `go list -export -deps -json`
// supplies the package graph and compiled export data, the go/importer gc
// importer consumes that export data for dependencies, and each target
// package itself is parsed from source with comments (the //pace:
// directives live there). It is the hermetic stand-in for
// golang.org/x/tools/go/packages that cmd/pacevet and the analyzer test
// suites share.
package load

import (
	"bytes"
	"encoding/json"
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
	"sort"
	"strings"
)

// Package is one type-checked target package.
type Package struct {
	PkgPath   string
	Dir       string
	GoFiles   []string // absolute paths, in go list order
	Fset      *token.FileSet
	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Incomplete bool
	Error      *struct{ Err string }
}

// Load resolves patterns (relative to dir; "./..." style) into targets and
// type-checks them. All targets share one FileSet so analyzer output
// positions are comparable across packages.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint/load: go list: %v\n%s", err, stderr.String())
	}

	exports := map[string]string{}
	var targets []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint/load: decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint/load: package %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			q := p
			targets = append(targets, &q)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint/load: no export data for %q", path)
		}
		return os.Open(f)
	})

	var pkgs []*Package
	for _, t := range targets {
		if len(t.GoFiles) == 0 {
			continue
		}
		pkg := &Package{PkgPath: t.ImportPath, Dir: t.Dir, Fset: fset}
		for _, gf := range t.GoFiles {
			abs := filepath.Join(t.Dir, gf)
			f, err := parser.ParseFile(fset, abs, nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("lint/load: %v", err)
			}
			pkg.GoFiles = append(pkg.GoFiles, abs)
			pkg.Syntax = append(pkg.Syntax, f)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
		}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(t.ImportPath, fset, pkg.Syntax, info)
		if err != nil {
			return nil, fmt.Errorf("lint/load: type-checking %s: %v", t.ImportPath, err)
		}
		pkg.Types = tp
		pkg.TypesInfo = info
		pkgs = append(pkgs, pkg)
	}
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("lint/load: no packages matched %v", patterns)
	}
	return pkgs, nil
}

// Dependents loads, as callers, every package of each module nested
// below the module that contains dir and requiring it (for this repo,
// bench/). Those modules are outside the root module's ./..., so a
// whole-program check that asks "does anything call this?" must load
// them on its own. Their types come from a separate type-check, so
// callers are matched to declarations by name, not by object identity.
func Dependents(dir string) ([]*Package, error) {
	root, err := moduleRoot(dir)
	if err != nil {
		return nil, err
	}
	self, err := readModule(root)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if d.Name() != "go.mod" || filepath.Dir(path) == root {
			return nil
		}
		mod, err := readModule(filepath.Dir(path))
		if err != nil {
			return err
		}
		for _, r := range mod.Require {
			if r.Path == self.Module.Path {
				more, err := Load(filepath.Dir(path), "./...")
				if err != nil {
					return err
				}
				pkgs = append(pkgs, more...)
				break
			}
		}
		return nil
	})
	return pkgs, err
}

// modFile is the subset of `go mod edit -json` output Dependents reads.
type modFile struct {
	Module  struct{ Path string }
	Require []struct{ Path string }
}

// readModule parses the go.mod in dir.
func readModule(dir string) (*modFile, error) {
	cmd := exec.Command("go", "mod", "edit", "-json")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint/load: reading %s/go.mod: %v", dir, err)
	}
	var m modFile
	if err := json.Unmarshal(out, &m); err != nil {
		return nil, fmt.Errorf("lint/load: decoding %s/go.mod: %v", dir, err)
	}
	return &m, nil
}

// moduleRoot walks up from dir to the directory holding go.mod.
func moduleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		if filepath.Dir(d) == d {
			return "", fmt.Errorf("lint/load: no go.mod above %s", dir)
		}
	}
}
