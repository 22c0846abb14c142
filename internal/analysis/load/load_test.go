package load

import (
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree materializes files (path -> contents) under a fresh temp dir
// and returns its root.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, body := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const modHeader = "module example.com/m\n\ngo 1.24\n"

// TestCheckParseError: Check reports the offending file on syntax
// errors.
func TestCheckParseError(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"bad.go": "package bad\n\nfunc {\n",
	})
	fset := token.NewFileSet()
	_, err := Check(fset, NewImporter(fset, dir), "example.com/bad", dir, []string{"bad.go"})
	if err == nil {
		t.Fatal("Check succeeded; want parse error")
	}
	if !strings.Contains(err.Error(), "load: parse") || !strings.Contains(err.Error(), "bad.go") {
		t.Errorf("parse error does not name the file: %v", err)
	}
}

// TestCheckTypeError: Check reports the package path on type errors.
func TestCheckTypeError(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod": modHeader,
		"x.go":   "package x\n\nvar V int = \"not an int\"\n",
	})
	fset := token.NewFileSet()
	_, err := Check(fset, NewImporter(fset, dir), "example.com/m", dir, []string{"x.go"})
	if err == nil {
		t.Fatal("Check succeeded; want type error")
	}
	if !strings.Contains(err.Error(), "load: typecheck example.com/m") {
		t.Errorf("type error does not name the package: %v", err)
	}
}

// TestImporterMissingExportData: importing a path no module provides
// must fail with a message that names the path instead of a bare gc
// importer error. GOPROXY=off keeps the go command from reaching for
// the network.
func TestImporterMissingExportData(t *testing.T) {
	t.Setenv("GOPROXY", "off")
	t.Setenv("GOFLAGS", "")
	dir := writeTree(t, map[string]string{
		"go.mod": modHeader,
		"a/a.go": "package a\n",
	})
	fset := token.NewFileSet()
	imp := NewImporter(fset, dir)
	_, err := imp.Import("example.com/no/such/pkg")
	if err == nil {
		t.Fatal("Import succeeded; want missing-export-data error")
	}
	if !strings.Contains(err.Error(), "example.com/no/such/pkg") {
		t.Errorf("error does not name the import path: %v", err)
	}
}

// TestImporterStaleExportData: go list handed back an export file that
// has since been pruned from the build cache. The importer must say the
// entry is stale and how to refresh it, not just echo os.Open.
func TestImporterStaleExportData(t *testing.T) {
	dir := writeTree(t, map[string]string{"go.mod": modHeader})
	fset := token.NewFileSet()
	imp := NewImporter(fset, dir)
	imp.add("example.com/gone", filepath.Join(dir, "pruned-entry.a"))
	_, err := imp.Import("example.com/gone")
	if err == nil {
		t.Fatal("Import succeeded; want stale-export-data error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "stale export data") || !strings.Contains(msg, "example.com/gone") {
		t.Errorf("stale cache entry not diagnosed: %v", err)
	}
	if !strings.Contains(msg, "go build") {
		t.Errorf("error gives no recovery hint: %v", err)
	}
}
