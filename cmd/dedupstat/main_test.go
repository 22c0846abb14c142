package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestDedupstatSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a subprocess")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "dedupstat")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	// Two files sharing half their content.
	shared := bytes.Repeat([]byte("SHARED-BLOCK-CONTENT!"), 1000)
	a := append(append([]byte{}, shared...), bytes.Repeat([]byte("a"), 8192)...)
	b := append(append([]byte{}, shared...), bytes.Repeat([]byte("b"), 8192)...)
	fa := filepath.Join(dir, "a.bin")
	fb := filepath.Join(dir, "b.bin")
	if err := os.WriteFile(fa, a, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fb, b, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "-chunk", "512", fa, fb).CombinedOutput()
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	for _, want := range []string{"local-unique", "global-unique", "histogram",
		"phase timing:", "chunking", "fingerprint", "local-dedup"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Content-defined (gear) mode must also work.
	if out, err := exec.Command(bin, "-chunker", "gear", "-chunk", "512", fa).CombinedOutput(); err != nil {
		t.Fatalf("gear run: %v\n%s", err, out)
	}
	// The deleted Rabin chunker's name is a usage error.
	err = exec.Command(bin, "-chunker", "cdc", "-chunk", "512", fa).Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Errorf("-chunker cdc: got %v, want exit status 2", err)
	}
	// Missing file is an error.
	if _, err := exec.Command(bin, filepath.Join(dir, "absent")).CombinedOutput(); err == nil {
		t.Error("missing file accepted")
	}
}

func TestTrunc(t *testing.T) {
	if got := trunc("short", 10); got != "short" {
		t.Errorf("trunc short = %q", got)
	}
	if got := trunc("averyverylongpathindeed", 10); len(got) != 10 || !strings.HasPrefix(got, "...") {
		t.Errorf("trunc long = %q", got)
	}
}
