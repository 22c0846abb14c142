// Command dedupvet is the repo's invariant checker: the analyzers under
// internal/analysis, each kept because it catches a fault that the tests,
// the race detector and go vet all miss (each package doc names that
// fault and where it would land). It runs as a go vet tool, speaking
// cmd/go's single-package vet protocol (-V=full, -flags, and a vet.cfg
// argument):
//
//	go build -o dedupvet ./cmd/dedupvet
//	go vet -vettool=$PWD/dedupvet ./...
//
// cmd/go vets a package together with its _test.go files; those are
// type-checked but not analyzed, since the invariants bind production
// code. Exit status: 0 when the package is clean, 2 when findings were
// reported, 1 on operational failure. Findings are suppressed site by
// site with `//dedupvet:<directive>` comments; see internal/analysis.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"io"
	"os"
	"strings"

	"dedupcr/internal/analysis"
	"dedupcr/internal/analysis/boundedmake"
	"dedupcr/internal/analysis/guardedby"
	"dedupcr/internal/analysis/load"
	"dedupcr/internal/analysis/phaseattr"
)

// version is what -V=full reports; cmd/go hashes the line into its action
// cache, so bump it when analyzer behaviour changes.
const version = "v5"

// analyzers is the suite, in reporting order.
var analyzers = []*analysis.Analyzer{
	phaseattr.Analyzer,
	guardedby.Analyzer,
	boundedmake.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("dedupvet", flag.ExitOnError)
	vFlag := fs.String("V", "", "print version and exit (cmd/go protocol)")
	flagsFlag := fs.Bool("flags", false, "print analyzer flags as JSON and exit (cmd/go protocol)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: go vet -vettool=$PWD/dedupvet [packages]\n\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(fs.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		return 1
	}
	switch {
	case *vFlag != "":
		// cmd/go requires `<anything> version <non-devel-version>`; it
		// hashes the whole line as the tool's build ID.
		fmt.Printf("dedupvet version %s-go\n", version)
		return 0
	case *flagsFlag:
		fmt.Println("[]") // the analyzers take no flags
		return 0
	case fs.NArg() != 1 || !strings.HasSuffix(fs.Arg(0), ".cfg"):
		fs.Usage()
		return 1
	}
	return runVetCfg(fs.Arg(0))
}

// vetConfig is the package description cmd/go writes for vet tools.
type vetConfig struct {
	ImportPath  string
	Dir         string
	GoFiles     []string
	ImportMap   map[string]string
	PackageFile map[string]string
	VetxOnly    bool
	VetxOutput  string
}

// runVetCfg analyzes the single package cmd/go described in cfgPath.
func runVetCfg(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dedupvet:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "dedupvet: parse %s: %v\n", cfgPath, err)
		return 1
	}
	// Facts files are not produced, but the driver caches on VetxOutput's
	// existence; an empty file keeps repeated runs fast.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "dedupvet:", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}
	// cmd/go hands over every dependency's export data, keyed by package
	// ID; ImportMap translates the source import paths to those IDs.
	fset := token.NewFileSet()
	gc := importer.ForCompiler(fset, "gc", func(id string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[id]
		if !ok {
			return nil, fmt.Errorf("dedupvet: no export data for %q", id)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		if id, ok := cfg.ImportMap[path]; ok {
			path = id
		}
		return gc.Import(path)
	})
	pkg, err := load.Check(fset, imp, cfg.ImportPath, cfg.Dir, cfg.GoFiles)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dedupvet:", err)
		return 1
	}
	var files []*ast.File
	for _, f := range pkg.Files {
		if !strings.HasSuffix(fset.Position(f.Package).Filename, "_test.go") {
			files = append(files, f)
		}
	}
	pkg.Files = files
	diags, err := analysis.RunPackage(pkg, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dedupvet:", err)
		return 1
	}
	if len(diags) == 0 {
		return 0
	}
	analysis.SortDiagnostics(fset, diags)
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	return 2
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
