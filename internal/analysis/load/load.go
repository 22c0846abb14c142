// Package load type-checks Go packages for the dedupvet analyzers without
// depending on golang.org/x/tools. Check parses and type-checks one
// package through any importer: under `go vet -vettool` cmd/go hands the
// tool every dependency's export data, and the analyzers' golden tests
// resolve their standard-library imports through Importer, which asks
// `go list -export` for the build cache's export data. Everything works
// offline — the go toolchain and its build cache are the only
// requirements.
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
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one type-checked package ready for analysis.
type Package struct {
	// Path is the canonical import path.
	Path string
	// Fset maps positions of Files.
	Fset *token.FileSet
	// Files are the parsed source files, comments included.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info carries the type-checker fact tables for Files.
	Info *types.Info
}

// listPackage is the slice of `go list -json` output the importer consumes.
type listPackage struct {
	ImportPath string
	Export     string
	Error      *struct{ Err string }
}

// goList runs `go list -e -export -deps` for path in dir and decodes the
// JSON package stream.
func goList(dir, path string) ([]listPackage, error) {
	args := []string{"list", "-e", "-export", "-deps", "-json=ImportPath,Export,Error", path}
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("load: go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("load: decode go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// Importer resolves import paths to type information using gc export data
// from the build cache, shelling out to `go list -export` lazily for
// paths it has not seen (e.g. standard-library imports of analysistest
// fixtures). It is safe for sequential use only.
type Importer struct {
	dir     string // working directory for lazy go list calls
	exports map[string]string
	gc      types.Importer
}

// NewImporter returns an importer that resolves unknown paths by running
// `go list -export` in dir.
func NewImporter(fset *token.FileSet, dir string) *Importer {
	im := &Importer{dir: dir, exports: make(map[string]string)}
	im.gc = importer.ForCompiler(fset, "gc", im.lookup)
	return im
}

// add registers export data for one import path.
func (im *Importer) add(path, exportFile string) {
	if exportFile != "" {
		im.exports[path] = exportFile
	}
}

// lookup feeds export data to the gc importer, resolving unknown paths
// through `go list -export` on demand.
func (im *Importer) lookup(path string) (io.ReadCloser, error) {
	file, ok := im.exports[path]
	if !ok {
		pkgs, err := goList(im.dir, path)
		if err != nil {
			return nil, err
		}
		var listErr string
		for _, p := range pkgs {
			im.add(p.ImportPath, p.Export)
			if p.ImportPath == path && p.Error != nil {
				listErr = p.Error.Err
			}
		}
		if file, ok = im.exports[path]; !ok {
			if listErr != "" {
				return nil, fmt.Errorf("load: no export data for %q: %s", path, listErr)
			}
			return nil, fmt.Errorf("load: no export data for %q: the package did not compile, or the build cache holds no entry for it; run `go build %s` and retry", path, path)
		}
	}
	rc, err := os.Open(file)
	if err != nil {
		// The build cache entry go list reported has since been pruned
		// (e.g. `go clean -cache` raced the analysis, or the cache is on
		// ephemeral storage): the path is stale, not wrong.
		return nil, fmt.Errorf("load: stale export data for %q: %v; the build cache entry recorded by `go list` is gone, run `go build ./...` to repopulate it", path, err)
	}
	return rc, nil
}

// Import implements types.Importer.
func (im *Importer) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return im.gc.Import(path)
}

// Check parses and type-checks one package's files with the given
// importer, returning the analysis-ready Package.
func Check(fset *token.FileSet, imp types.Importer, path, dir string, goFiles []string) (*Package, error) {
	var files []*ast.File
	for _, name := range goFiles {
		filename := name
		if !filepath.IsAbs(filename) {
			filename = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, filename, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("load: parse %s: %v", filename, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("load: typecheck %s: %v", path, err)
	}
	return &Package{Path: path, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}
