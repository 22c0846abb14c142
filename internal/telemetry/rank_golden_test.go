package telemetry

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestRankExpositionGolden pins the per-rank Prometheus families on the
// report fixtures: the dedupcr_*, dedupcr_restore_* and dedupcr_store_*
// expositions replicad prints with -stats. They are metrics' writers, so
// the golden files live in that package's testdata.
// Regenerate with: go test ./internal/telemetry -run TestRankExpositionGolden -update
func TestRankExpositionGolden(t *testing.T) {
	var dump, restore, store bytes.Buffer
	fullDump(3).WritePrometheus(&dump)
	fullRestore(3).WritePrometheus(&restore)
	for _, s := range storeFixtures() {
		s.WritePrometheus(&store)
	}
	for name, got := range map[string][]byte{
		"dump.prom":    dump.Bytes(),
		"restore.prom": restore.Bytes(),
		"store.prom":   store.Bytes(),
	} {
		path := filepath.Join("..", "metrics", "testdata", name)
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the golden file:\n--- got\n%s\n--- want\n%s", path, got, want)
		}
	}
}
