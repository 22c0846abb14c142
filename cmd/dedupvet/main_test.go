package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// buildTool compiles the dedupvet binary once per test into a temp dir.
func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "dedupvet")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build dedupvet: %v\n%s", err, out)
	}
	return bin
}

// collectivesStub stands in for internal/collectives: phaseattr keys on
// the package path suffix and the function names.
const collectivesStub = `package collectives

func NotePhase(c any, phase string) {}

func Barrier(c any) error { return nil }
`

// dirty holds, per analyzer, a scratch module's files carrying exactly
// one finding of that analyzer and nothing else.
var dirty = map[string]map[string]string{
	"phaseattr": {
		"internal/collectives/c.go": collectivesStub,
		"internal/core/core.go": `package core

import "example.com/vettest/internal/collectives"

func Finish(c any) error {
	return collectives.Barrier(c)
}
`,
	},
	"guardedby": {
		"internal/box/box.go": `package box

import "sync"

type Box struct {
	mu sync.Mutex
	n  int // guarded by mu
}

func (b *Box) N() int { return b.n }
`,
	},
	"boundedmake": {
		"internal/wire/wire.go": `package wire

import "encoding/binary"

func Decode(data []byte) []byte {
	n := int(binary.BigEndian.Uint32(data))
	return make([]byte, n)
}
`,
	},
}

// clean is a module with the dirty sites repaired or audited, plus a
// test file breaking every invariant: test files are not analyzed.
var clean = map[string]string{
	"internal/collectives/c.go": collectivesStub,
	"internal/core/core.go": `package core

import "example.com/vettest/internal/collectives"

func Finish(c any) error {
	collectives.NotePhase(c, "barrier")
	return collectives.Barrier(c)
}
`,
	"internal/core/core_test.go": `package core

import (
	"encoding/binary"
	"sync"
	"testing"

	"example.com/vettest/internal/collectives"
)

type box struct {
	mu sync.Mutex
	n  int // guarded by mu
}

func TestBarrier(t *testing.T) {
	b := &box{}
	b.n++
	_ = make([]byte, binary.BigEndian.Uint16([]byte{0, 1}))
	if err := collectives.Barrier(nil); err != nil {
		t.Fatal(err)
	}
}
`,
	"internal/box/box.go": `package box

import "sync"

type Box struct {
	mu sync.Mutex
	n  int // guarded by mu
}

func (b *Box) N() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}
`,
	"internal/wire/wire.go": `package wire

import "encoding/binary"

func Decode(data []byte) []byte {
	n := int(binary.BigEndian.Uint32(data))
	if n > len(data)-4 {
		return nil
	}
	return make([]byte, n)
}
`,
}

// writeModule lays out a scratch module holding files.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	write := func(rel, content string) {
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module example.com/vettest\n\ngo 1.22\n")
	for rel, content := range files {
		write(rel, content)
	}
	return dir
}

func TestProtocolVersion(t *testing.T) {
	bin := buildTool(t)
	out, err := exec.Command(bin, "-V=full").Output()
	if err != nil {
		t.Fatalf("-V=full: %v", err)
	}
	// cmd/go requires `<name> version <version>` with a non-devel version;
	// it hashes the line as the tool's build ID.
	if !regexp.MustCompile(`^dedupvet version [^\s]+\n$`).Match(out) {
		t.Fatalf("-V=full output %q does not satisfy the cmd/go tool-id protocol", out)
	}
	if strings.Contains(string(out), "devel") {
		t.Fatalf("-V=full output %q reports a devel version, which cmd/go rejects", out)
	}
	if want := "dedupvet version " + version + "-go\n"; string(out) != want {
		t.Fatalf("-V=full output %q, want %q", out, want)
	}
}

func TestProtocolFlags(t *testing.T) {
	bin := buildTool(t)
	out, err := exec.Command(bin, "-flags").Output()
	if err != nil {
		t.Fatalf("-flags: %v", err)
	}
	var flags []struct {
		Name  string
		Bool  bool
		Usage string
	}
	if err := json.Unmarshal(out, &flags); err != nil {
		t.Fatalf("-flags output %q is not the JSON cmd/go expects: %v", out, err)
	}
	if len(flags) != 0 {
		t.Fatalf("-flags reports %+v; the analyzers take no flags", flags)
	}
}

// exitCode runs cmd and returns its exit status plus combined output.
func exitCode(t *testing.T, cmd *exec.Cmd) (int, string) {
	t.Helper()
	out, err := cmd.CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), string(out)
	}
	t.Fatalf("run %v: %v\n%s", cmd.Args, err, out)
	return -1, ""
}

func TestGoVetVettool(t *testing.T) {
	bin := buildTool(t)
	vet := func(files map[string]string) (int, string) {
		cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
		cmd.Dir = writeModule(t, files)
		return exitCode(t, cmd)
	}
	for _, a := range analyzers {
		files, ok := dirty[a.Name]
		if !ok {
			t.Errorf("no dirty fixture for analyzer %s", a.Name)
			continue
		}
		code, out := vet(files)
		if code == 0 || !strings.Contains(out, "("+a.Name+")") {
			t.Errorf("go vet -vettool on the %s fixture: exit %d, want nonzero with a %s finding\n%s", a.Name, code, a.Name, out)
		}
		for _, other := range analyzers {
			if other != a && strings.Contains(out, "("+other.Name+")") {
				t.Errorf("the %s fixture also trips %s:\n%s", a.Name, other.Name, out)
			}
		}
	}
	if code, out := vet(clean); code != 0 {
		t.Fatalf("go vet -vettool on clean tree: exit %d, want 0\n%s", code, out)
	}
}
