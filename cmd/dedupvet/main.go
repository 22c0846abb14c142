// Command dedupvet is the repo's invariant checker: a multichecker
// bundling the internal/analysis suite (collective determinism, bounded
// decoding, phase attribution, guarded-by lock annotations, context
// discipline, raw-print hygiene, lock ordering, goroutine lifetime,
// atomics discipline). It runs in two modes:
//
// Standalone (the Makefile/CI entry point, works without installing):
//
//	go run ./cmd/dedupvet ./...
//
// As a vet tool, speaking cmd/go's single-package vet protocol
// (-V=full, -flags, and a vet.cfg argument):
//
//	go build -o dedupvet ./cmd/dedupvet
//	go vet -vettool=./dedupvet ./...
//
// Exit status: 0 when the tree is clean, 2 when findings were reported,
// 1 on operational failure. Findings are suppressed site by site with
// `//dedupvet:<directive>` comments; see internal/analysis.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"go/types"
	"os"
	"strings"

	"dedupcr/internal/analysis"
	"dedupcr/internal/analysis/atomicfield"
	"dedupcr/internal/analysis/boundedmake"
	"dedupcr/internal/analysis/ctxcheck"
	"dedupcr/internal/analysis/determinism"
	"dedupcr/internal/analysis/gorolife"
	"dedupcr/internal/analysis/guardedby"
	"dedupcr/internal/analysis/load"
	"dedupcr/internal/analysis/lockorder"
	"dedupcr/internal/analysis/phaseattr"
	"dedupcr/internal/analysis/rawprint"
)

// version is what -V=full reports; cmd/go hashes the line into its action
// cache, so bump it when analyzer behaviour changes.
const version = "v4"

// analyzers is the suite, in reporting order.
var analyzers = []*analysis.Analyzer{
	determinism.Analyzer,
	boundedmake.Analyzer,
	phaseattr.Analyzer,
	guardedby.Analyzer,
	ctxcheck.Analyzer,
	rawprint.Analyzer,
	lockorder.Analyzer,
	gorolife.Analyzer,
	atomicfield.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("dedupvet", flag.ExitOnError)
	vFlag := fs.String("V", "", "print version and exit (cmd/go protocol)")
	flagsFlag := fs.Bool("flags", false, "print analyzer flags as JSON and exit (cmd/go protocol)")
	listFlag := fs.Bool("list", false, "list the analyzers and exit")
	var disabled, enabled stringSet
	fs.Var(&disabled, "disable", "comma-separated analyzers to skip")
	fs.Var(&enabled, "analyzers", "comma-separated analyzers to run (default: all)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: dedupvet [-analyzers a,b] [-disable a,b] [packages]\n       dedupvet vet.cfg   (go vet -vettool mode)\n\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(fs.Output(), "  %-12s %s\n", a.Name, firstLine(a.Doc))
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
		return printFlags()
	case *listFlag:
		for _, a := range analyzers {
			fmt.Println(a.Name)
		}
		return 0
	}

	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	for name := range enabled {
		if !known[name] {
			fmt.Fprintf(os.Stderr, "dedupvet: unknown analyzer %q (run with -list for the suite)\n", name)
			return 1
		}
	}
	var active []*analysis.Analyzer
	for _, a := range analyzers {
		if len(enabled) > 0 && !enabled[a.Name] {
			continue
		}
		if disabled[a.Name] {
			continue
		}
		active = append(active, a)
	}

	rest := fs.Args()
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return runVetCfg(rest[0], active)
	}
	return runPatterns(rest, active)
}

// stringSet is a comma-separated flag value.
type stringSet map[string]bool

func (s *stringSet) String() string { return "" }
func (s *stringSet) Set(v string) error {
	if *s == nil {
		*s = make(map[string]bool)
	}
	for _, name := range strings.Split(v, ",") {
		if name = strings.TrimSpace(name); name != "" {
			(*s)[name] = true
		}
	}
	return nil
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// printFlags emits the JSON flag description go vet's driver consumes.
func printFlags() int {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	out := []jsonFlag{
		{Name: "disable", Bool: false, Usage: "comma-separated analyzers to skip"},
		{Name: "analyzers", Bool: false, Usage: "comma-separated analyzers to run (default: all)"},
	}
	data, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dedupvet:", err)
		return 1
	}
	fmt.Println(string(data))
	return 0
}

// runPatterns is standalone mode: load the matching packages with the go
// command and analyze them all.
func runPatterns(patterns []string, active []*analysis.Analyzer) int {
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dedupvet:", err)
		return 1
	}
	pkgs, err := load.Packages(wd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dedupvet:", err)
		return 1
	}
	fset, diags, err := analysis.Run(pkgs, active)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dedupvet:", err)
		return 1
	}
	if len(diags) > 0 {
		analysis.Print(os.Stderr, fset, diags)
		return 2
	}
	return 0
}

// vetConfig is the package description cmd/go writes for vet tools.
type vetConfig struct {
	ID          string
	Compiler    string
	Dir         string
	ImportPath  string
	GoFiles     []string
	ImportMap   map[string]string
	PackageFile map[string]string
	VetxOnly    bool
	VetxOutput  string
}

// cfgImporter resolves imports through the export data cmd/go handed us,
// translating source import paths through ImportMap.
type cfgImporter struct {
	cfg *vetConfig
	gc  types.Importer
}

func newCfgImporter(fset *token.FileSet, cfg *vetConfig) *cfgImporter {
	im := &cfgImporter{cfg: cfg}
	im.gc = load.NewLookupImporter(fset, func(path string) (string, error) {
		if file, ok := cfg.PackageFile[path]; ok {
			return file, nil
		}
		return "", fmt.Errorf("dedupvet: no export data for %q", path)
	})
	return im
}

func (im *cfgImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if mapped, ok := im.cfg.ImportMap[path]; ok {
		path = mapped
	}
	return im.gc.Import(path)
}

// runVetCfg is `go vet -vettool` mode: analyze the single package the
// driver described in cfgPath.
func runVetCfg(cfgPath string, active []*analysis.Analyzer) int {
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
	fset := token.NewFileSet()
	pkg, err := load.Check(fset, newCfgImporter(fset, &cfg), cfg.ImportPath, cfg.Dir, cfg.GoFiles)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dedupvet:", err)
		return 1
	}
	diags, err := analysis.RunPackage(pkg, active)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dedupvet:", err)
		return 1
	}
	if len(diags) > 0 {
		analysis.SortDiagnostics(fset, diags)
		analysis.Print(os.Stderr, fset, diags)
		return 2
	}
	return 0
}
