// Package analysistest runs dedupvet analyzers over golden source trees,
// mirroring golang.org/x/tools/go/analysis/analysistest: fixture packages
// live under <analyzer>/testdata/src/<importpath>/, offending lines carry
// `// want "regexp"` comments, and the runner fails the test when expected
// and reported diagnostics differ in either direction.
//
// Fixture packages may import each other by their path below testdata/src
// (e.g. a fake "internal/collectives" stub next to an "internal/core"
// fixture); anything else resolves through the real toolchain's export
// data, so standard-library imports work offline.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"dedupcr/internal/analysis"
	"dedupcr/internal/analysis/load"
)

// wantRe extracts the quoted pattern of a `// want "..."` comment. Only
// double-quoted Go-string patterns are supported; multiple want comments
// on one line are not (one finding per line keeps fixtures readable).
var wantRe = regexp.MustCompile(`//\s*want\s+"((?:[^"\\]|\\.)*)"`)

// fixtureImporter resolves testdata-local packages from source and
// everything else through the shared export-data importer.
type fixtureImporter struct {
	srcDir string
	fset   *token.FileSet
	pkgs   map[string]*types.Package
	std    *load.Importer
}

func (im *fixtureImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := im.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(im.srcDir, filepath.FromSlash(path))
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		pkg, err := im.load(path, dir)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return im.std.Import(path)
}

// load parses and type-checks one fixture package, caching the result.
func (im *fixtureImporter) load(path, dir string) (*load.Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var goFiles []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			goFiles = append(goFiles, e.Name())
		}
	}
	if len(goFiles) == 0 {
		return nil, fmt.Errorf("analysistest: no .go files in %s", dir)
	}
	sort.Strings(goFiles)
	pkg, err := load.Check(im.fset, im, path, dir, goFiles)
	if err != nil {
		return nil, err
	}
	im.pkgs[path] = pkg.Types
	return pkg, nil
}

// expectation is one `// want` comment.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
}

// collectWants scans a fixture package's comments for want expectations.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []expectation {
	t.Helper()
	var wants []expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pattern, err := unquoteWant(m[1])
				if err != nil {
					t.Fatalf("bad want pattern %q: %v", m[1], err)
				}
				re, err := regexp.Compile(pattern)
				if err != nil {
					t.Fatalf("bad want regexp %q: %v", pattern, err)
				}
				pos := fset.Position(c.Slash)
				wants = append(wants, expectation{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	return wants
}

// unquoteWant undoes the minimal escaping want patterns need inside a
// double-quoted comment: \" and \\.
func unquoteWant(s string) (string, error) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' {
			if i+1 >= len(s) {
				return "", fmt.Errorf("trailing backslash")
			}
			i++
		}
		b.WriteByte(s[i])
	}
	return b.String(), nil
}

// Run analyzes the fixture packages at the given import paths below
// testdata/src (relative to the calling test's working directory) and
// checks the reported diagnostics against the `// want` comments: every
// want must be matched by a diagnostic on its line, and every diagnostic
// must satisfy a want.
func Run(t *testing.T, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	srcDir := filepath.Join(wd, "testdata", "src")
	fset := token.NewFileSet()
	im := &fixtureImporter{
		srcDir: srcDir,
		fset:   fset,
		pkgs:   make(map[string]*types.Package),
		std:    load.NewImporter(fset, wd),
	}
	for _, path := range pkgPaths {
		dir := filepath.Join(srcDir, filepath.FromSlash(path))
		pkg, err := im.load(path, dir)
		if err != nil {
			t.Fatalf("load %s: %v", path, err)
		}
		diags, err := analysis.RunPackage(pkg, []*analysis.Analyzer{a})
		if err != nil {
			t.Fatalf("run %s on %s: %v", a.Name, path, err)
		}
		analysis.SortDiagnostics(fset, diags)
		checkPackage(t, a, fset, pkg, diags)
	}
}

func checkPackage(t *testing.T, a *analysis.Analyzer, fset *token.FileSet, pkg *load.Package, diags []analysis.Diagnostic) {
	t.Helper()
	wants := collectWants(t, fset, pkg.Files)
	matched := make([]bool, len(wants))
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		ok := false
		for i, w := range wants {
			if !matched[i] && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("%s: unexpected diagnostic: %s (%s)", pos, d.Message, a.Name)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}
