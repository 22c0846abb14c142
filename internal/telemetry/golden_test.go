package telemetry

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dedupcr/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite the testdata golden files")

// report is what every cluster view renders through.
type report interface {
	WriteText(io.Writer)
	WritePrometheus(io.Writer)
}

// goldenCase is one fixture: the wire encodings of its per-rank records
// and the cluster view they reduce to.
type goldenCase struct {
	name string
	wire func() ([][]byte, error)
	view func() (report, error)
}

func encodeAll[T any](recs []T, enc func(T) ([]byte, error)) ([][]byte, error) {
	out := make([][]byte, len(recs))
	for i, r := range recs {
		b, err := enc(r)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// stragglingDumps is clusterDumps(8) with rank 5's put blown far past
// the cluster median.
func stragglingDumps() []metrics.Dump {
	d := clusterDumps(8)
	d[5].Phases.Put = 400 * time.Millisecond
	d[5].PutLatency = fullDump(5).PutLatency
	return d
}

// quietRestores is clusterRestores(4) without its barrier straggler.
func quietRestores() []metrics.Restore {
	rs := clusterRestores(4)
	rs[3].Phases.Barrier = time.Millisecond
	return rs
}

func storeFixtures() []metrics.StoreStats {
	return []metrics.StoreStats{storeStatsFixture(0), storeStatsFixture(1), {Rank: 2}, storeStatsFixture(3)}
}

func goldenCases() []goldenCase {
	dumpCase := func(name string, fix func() []metrics.Dump) goldenCase {
		return goldenCase{name,
			func() ([][]byte, error) { return encodeAll(append(fix(), fullDump(3)), EncodeDump) },
			func() (report, error) { return Aggregate(fix()) }}
	}
	restoreCase := func(name string, fix func() []metrics.Restore) goldenCase {
		return goldenCase{name,
			func() ([][]byte, error) { return encodeAll(append(fix(), fullRestore(3)), EncodeRestore) },
			func() (report, error) { return AggregateRestore(fix()) }}
	}
	return []goldenCase{
		dumpCase("dump", func() []metrics.Dump { return clusterDumps(8) }),
		dumpCase("dump-straggler", stragglingDumps),
		restoreCase("restore", func() []metrics.Restore { return clusterRestores(4) }),
		restoreCase("restore-quiet", quietRestores),
		{"store",
			func() ([][]byte, error) { return encodeAll(storeFixtures(), EncodeStoreStats) },
			func() (report, error) { return AggregateStore(storeFixtures()) }},
	}
}

// TestGolden pins every output of the cluster-report plane byte for
// byte: the wire encoding of each per-rank record, the indented JSON of
// the reduced view, its text report and its Prometheus exposition.
// Regenerate with: go test ./internal/telemetry -run TestGolden -update
func TestGolden(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			frames, err := tc.wire()
			if err != nil {
				t.Fatal(err)
			}
			var wire bytes.Buffer
			for i, f := range frames {
				fmt.Fprintf(&wire, "%d %s\n", i, hex.EncodeToString(f))
			}
			view, err := tc.view()
			if err != nil {
				t.Fatal(err)
			}
			js, err := json.MarshalIndent(view, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			var text, prom bytes.Buffer
			view.WriteText(&text)
			view.WritePrometheus(&prom)
			for ext, got := range map[string][]byte{
				"wire.hex": wire.Bytes(),
				"json":     append(js, '\n'),
				"txt":      text.Bytes(),
				"prom":     prom.Bytes(),
			} {
				path := filepath.Join("testdata", tc.name+"."+ext)
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
		})
	}
}
