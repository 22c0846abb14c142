package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"dedupcr/internal/chunk"
	"dedupcr/internal/core"
	"dedupcr/internal/metrics"
	"dedupcr/internal/obs"
	"dedupcr/internal/telemetry"
)

func quickCfg() Config { return Config{Quick: true} }

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig3a", "fig3b", "fig3c", "table1", "fig4a", "fig4b", "fig4c", "fig5a", "fig5b", "fig5c",
		"phases", "imbalance", "fragmentation", "parallel", "ablation-shuffle", "ablation-restore", "ablation-pfs"}
	for _, id := range want {
		if _, ok := Lookup(id); !ok {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
	if len(Registry) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(Registry), len(want))
	}
	if got := len(IDs()); got != len(want) {
		t.Errorf("IDs() returned %d, want %d", got, len(want))
	}
}

func TestBaselineInterpolation(t *testing.T) {
	w := HPCCG()
	if got := w.BaselineAt(408); got != 279 {
		t.Errorf("BaselineAt(408) = %v, want exact 279", got)
	}
	mid := w.BaselineAt(130)
	if mid <= 152 || mid >= 186 {
		t.Errorf("BaselineAt(130) = %v, want within (152, 186)", mid)
	}
	if got := w.BaselineAt(1000); got != 279 {
		t.Errorf("BaselineAt beyond range = %v, want flat 279", got)
	}
	if got := w.BaselineAt(0); got != 82 {
		t.Errorf("BaselineAt below range = %v, want flat 82", got)
	}
}

// parseSeconds extracts a leading float from a "123s" cell.
func parseSeconds(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "s"), 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v
}

func TestFig3aShape(t *testing.T) {
	tab, err := Fig3a(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("fig3a has %d rows, want 4", len(tab.Rows))
	}
	// The percentage columns must show coll < local strictly.
	for _, row := range tab.Rows {
		local := strings.TrimSuffix(row[4], "%")
		coll := strings.TrimSuffix(row[5], "%")
		lv, err1 := strconv.ParseFloat(local, 64)
		cv, err2 := strconv.ParseFloat(coll, 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("row %v: bad percentages", row)
		}
		if cv >= lv {
			t.Errorf("%s: coll-dedup %.1f%% not below local-dedup %.1f%%", row[0], cv, lv)
		}
		if lv >= 100 {
			t.Errorf("%s: local-dedup found no redundancy (%.1f%%)", row[0], lv)
		}
	}
}

func TestTable1Shape(t *testing.T) {
	tab, err := Table1(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		n, _ := strconv.Atoi(row[1])
		no := parseSeconds(t, row[2])
		local := parseSeconds(t, row[3])
		coll := parseSeconds(t, row[4])
		base := parseSeconds(t, row[5])
		if n < 4 {
			continue // degenerate group sizes carry no dedup signal
		}
		if !(coll <= local && local <= no) {
			t.Errorf("%s N=%d: ordering violated: no=%g local=%g coll=%g", row[0], n, no, local, coll)
		}
		if coll < base {
			t.Errorf("%s N=%d: coll-dedup %g below baseline %g", row[0], n, coll, base)
		}
	}
}

func TestFig3bShape(t *testing.T) {
	tab, err := Fig3b(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 2 {
		t.Fatal("too few rows")
	}
	// Reduction overhead must grow with the process count and stay
	// nearly flat in K (within 2x across the K columns of one row).
	var prev float64
	for i, row := range tab.Rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatalf("row %v: %v", row, err)
		}
		if i > 0 && v < prev {
			t.Errorf("overhead decreased with scale: %g after %g", v, prev)
		}
		prev = v
		var lo, hi float64
		for c := 1; c < len(row); c++ {
			if row[c] == "n/a" {
				continue
			}
			kv, err := strconv.ParseFloat(row[c], 64)
			if err != nil {
				t.Fatalf("row %v col %d: %v", row, c, err)
			}
			if lo == 0 || kv < lo {
				lo = kv
			}
			if kv > hi {
				hi = kv
			}
		}
		if hi > 2*lo {
			t.Errorf("N=%s: overhead varies %gx across K; paper says nearly flat", row[0], hi/lo)
		}
	}
}

func TestFig5cShuffleNeverHurts(t *testing.T) {
	tab, err := Fig5c(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		red, err := strconv.ParseFloat(strings.TrimSuffix(row[3], "%"), 64)
		if err != nil {
			t.Fatalf("row %v: %v", row, err)
		}
		if red < -1e-9 {
			t.Errorf("K=%s: shuffling worsened max receive size by %.1f%%", row[0], -red)
		}
	}
}

func TestFig4aShape(t *testing.T) {
	tab, err := Fig4a(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// no-dedup must degrade with K; coll-dedup must grow much slower.
	first := tab.Rows[0]
	last := tab.Rows[len(tab.Rows)-1]
	noGrowth := parseSeconds(t, last[1]) / parseSeconds(t, first[1])
	collGrowth := parseSeconds(t, last[3]) / parseSeconds(t, first[3])
	if noGrowth < 1.5 {
		t.Errorf("no-dedup grew only %.2fx from K=1 to K=max; expected strong degradation", noGrowth)
	}
	if collGrowth > noGrowth {
		t.Errorf("coll-dedup grew faster (%.2fx) than no-dedup (%.2fx)", collGrowth, noGrowth)
	}
	// At max K, coll-dedup must win.
	if parseSeconds(t, last[3]) >= parseSeconds(t, last[1]) {
		t.Errorf("coll-dedup (%s) not faster than no-dedup (%s) at max K", last[3], last[1])
	}
}

func TestFig4cShape(t *testing.T) {
	tab, err := Fig4c(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		red := strings.TrimSuffix(row[3], "%")
		v, err := strconv.ParseFloat(red, 64)
		if err != nil {
			t.Fatalf("row %v: bad reduction cell", row)
		}
		if v < -1e-9 {
			t.Errorf("K=%s: shuffling increased max receive size by %.1f%%", row[0], -v)
		}
	}
}

func TestFig5bShowsSkew(t *testing.T) {
	tab, err := Fig5b(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("no rows")
	}
	// coll-dedup's max must exceed its avg at the largest K (imbalance).
	last := tab.Rows[len(tab.Rows)-1]
	if last[5] == last[6] {
		t.Logf("warning: coll avg == coll max at K=%s (no visible imbalance at quick scale)", last[0])
	}
}

func TestRunScenarioConsistency(t *testing.T) {
	res, err := RunScenario(Config{}, CM1(), 8, 3, core.CollDedup, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dumps) != CM1().Checkpoints {
		t.Fatalf("got %d checkpoints, want %d", len(res.Dumps), CM1().Checkpoints)
	}
	if res.CheckpointTime() <= 0 {
		t.Error("checkpoint time must be positive")
	}
	if res.CompletionTime() <= res.Workload.BaselineAt(8) {
		t.Error("completion must exceed baseline")
	}
	if res.UniqueContentBytes() <= 0 {
		t.Error("unique content must be positive")
	}
	if got := len(res.SentBytesPerRank()); got != 8 {
		t.Errorf("SentBytesPerRank has %d entries, want 8", got)
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		ID:     "x",
		Title:  "t",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}},
		Notes:  []string{"note"},
	}
	out := tab.Render()
	for _, want := range []string{"== x: t ==", "a", "bb", "# note"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestPhasesBreakdown(t *testing.T) {
	tab, err := PhasesBreakdown(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// One row per phase plus sum / total / attributed.
	if want := len(metrics.PhaseNames) + 3; len(tab.Rows) != want {
		t.Fatalf("got %d rows, want %d", len(tab.Rows), want)
	}
	// The attribution row must report >= 90% for every approach (the
	// acceptance bar: phase sums within 10% of the measured total).
	attr := tab.Rows[len(tab.Rows)-1]
	for col := 1; col < len(attr); col++ {
		var pct float64
		if _, err := fmt.Sscanf(attr[col], "%f%%", &pct); err != nil {
			t.Fatalf("unparsable attribution cell %q", attr[col])
		}
		if pct < 90 {
			t.Errorf("%s: phases cover %.1f%% of total, want >= 90%%", tab.Header[col], pct)
		}
		if pct > 100.5 {
			t.Errorf("%s: phases cover %.1f%% of total, impossible", tab.Header[col], pct)
		}
	}
}

func TestAblationParallel(t *testing.T) {
	tab, err := AblationParallel(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if want := 6; len(tab.Rows) != want {
		t.Fatalf("got %d rows, want %d", len(tab.Rows), want)
	}
	for _, n := range tab.Notes {
		if strings.Contains(n, "DETERMINISM VIOLATION") {
			t.Errorf("ablation detected nondeterminism: %s", n)
		}
	}
	var confirmed bool
	for _, n := range tab.Notes {
		if strings.Contains(n, "byte-identical") {
			confirmed = true
		}
	}
	if !confirmed {
		t.Error("ablation did not confirm byte-identical outputs")
	}
}

func TestImbalanceExperiment(t *testing.T) {
	cfg := quickCfg()
	var labels []string
	var clusters []*telemetry.ClusterDump
	var rankSets [][]telemetry.RankTrace
	cfg.OnCluster = func(label string, cd *telemetry.ClusterDump, ranks []telemetry.RankTrace) {
		labels = append(labels, label)
		clusters = append(clusters, cd)
		rankSets = append(rankSets, ranks)
	}
	tab, err := Imbalance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("got %d rows, want one per approach", len(tab.Rows))
	}
	if len(labels) != 3 || labels[2] != "imbalance/coll-dedup" {
		t.Fatalf("OnCluster labels = %v", labels)
	}
	for i, cd := range clusters {
		if cd == nil || cd.Ranks != 8 {
			t.Fatalf("%s: cluster dump %+v", labels[i], cd)
		}
		if len(rankSets[i]) != cd.Ranks {
			t.Errorf("%s: %d rank traces for %d ranks", labels[i], len(rankSets[i]), cd.Ranks)
		}
		for r, rt := range rankSets[i] {
			if len(rt.Events) == 0 {
				t.Errorf("%s: rank %d trace slice empty", labels[i], r)
			}
		}
	}
	// The baselines replicate everything uniformly; their send load must
	// be perfectly balanced while coll-dedup's designation may skew.
	if tab.Rows[0][2] != "1.000" {
		t.Errorf("no-dedup send imbalance %q, want 1.000", tab.Rows[0][2])
	}
}

// TestAblationRestoreHonorsChunker pins that -chunker reaches the
// restore ablation's dumps: its failure-free row (deterministic, unlike
// the failure rows) must move when gear replaces fixed-size chunking.
func TestAblationRestoreHonorsChunker(t *testing.T) {
	rows := make(map[chunk.Algo][]string)
	for _, algo := range []chunk.Algo{chunk.AlgoFixed, chunk.AlgoGear} {
		cfg := quickCfg()
		cfg.Chunker = algo
		tab, err := AblationRestore(cfg)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		rows[algo] = tab.Rows[0]
	}
	if strings.Join(rows[chunk.AlgoFixed], "|") == strings.Join(rows[chunk.AlgoGear], "|") {
		t.Errorf("ablation-restore row 0 is %v under both fixed and gear chunking", rows[chunk.AlgoFixed])
	}
}

func TestRunScenarioTraceBypassesCache(t *testing.T) {
	cfg := Config{Quick: true}
	warm, err := RunScenario(cfg, HPCCG(), 4, 2, core.LocalDedup, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Trace = obs.New(1 << 14)
	traced, err := RunScenario(cfg, HPCCG(), 4, 2, core.LocalDedup, false)
	if err != nil {
		t.Fatal(err)
	}
	if warm == traced {
		t.Fatal("traced run returned the cached result")
	}
	if d := cfg.Trace.Dropped(); d != 0 {
		t.Fatalf("trace ring dropped %d events", d)
	}
	if cov := cfg.Trace.Coverage(); cov < 0.95 {
		t.Errorf("trace coverage %.3f, want >= 0.95", cov)
	}
	var haveCompute, haveImage, haveDump bool
	for _, e := range cfg.Trace.Events() {
		switch e.Msg {
		case "compute":
			haveCompute = true
		case "checkpoint-image":
			haveImage = true
		case "dump":
			haveDump = true
		}
	}
	if !haveCompute || !haveImage || !haveDump {
		t.Errorf("missing spans: compute=%v checkpoint-image=%v dump=%v", haveCompute, haveImage, haveDump)
	}
}

// TestScenarioTraceWrapIsAnError pins that a telemetry scenario refuses
// to hand out a merged trace its ring wrapped over, while a shared ring
// that wrapped only before the scenario started is still fine.
func TestScenarioTraceWrapIsAnError(t *testing.T) {
	cfg := quickCfg()
	cfg.Trace = obs.New(16)
	if _, _, err := runClusterScenario(cfg, HPCCG(), 4, 2, core.CollDedup); err == nil || !strings.Contains(err.Error(), "trace ring wrapped") {
		t.Fatalf("16-event ring: err = %v, want a wrap error", err)
	}

	cfg.Trace = obs.New(privateTraceSize)
	for i := 0; i < 2*privateTraceSize; i++ {
		cfg.Trace.Record(obs.Event{Kind: obs.KindLog})
	}
	_, ranks, err := runClusterScenario(cfg, HPCCG(), 4, 2, core.CollDedup)
	if err != nil {
		t.Fatalf("ring wrapped before the scenario: %v", err)
	}
	if len(ranks) != 4 {
		t.Fatalf("%d rank traces, want 4", len(ranks))
	}
}
