package repro

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/revision"
	"repro/internal/trace"
	"repro/internal/workload"
)

// sweepEntry is one timed configuration in the machine-readable sweep.
// The memstats fields are whole-run runtime.MemStats deltas around the
// measurement (including warm-up iterations), recording the GC pressure
// each configuration generates rather than per-op averages alone.
type sweepEntry struct {
	Name           string  `json:"name"`
	Workers        int     `json:"workers"` // 0 = GOMAXPROCS
	CorpusSize     int     `json:"corpusSize,omitempty"`
	Iterations     int     `json:"iterations"`
	NsPerOp        int64   `json:"nsPerOp"`
	AllocsPerOp    int64   `json:"allocsPerOp"`
	BytesPerOp     int64   `json:"bytesPerOp"`
	TotalAllocB    uint64  `json:"totalAllocBytes"`
	NumGC          uint32  `json:"numGC"`
	GCPauseNs      uint64  `json:"gcPauseTotalNs"`
	Speedup        float64 `json:"speedupVsSerial,omitempty"`
	SpeedupVsBatch float64 `json:"speedupVsBatch,omitempty"`
	SpeedupVsInc   float64 `json:"speedupVsIncremental,omitempty"`
	// SpeedupVsMarshal is a report-json entry's speed over the
	// report-marshal entry of the same corpus size and run.
	SpeedupVsMarshal float64 `json:"speedupVsMarshal,omitempty"`
	CacheHitRate     float64 `json:"cacheHitRate,omitempty"`
	// Ingest-path entries (the group-commit benchmark) report
	// throughput and durability amortization instead of allocations.
	QPS             float64 `json:"qps,omitempty"`
	FsyncsPerBundle float64 `json:"fsyncsPerBundle,omitempty"`
}

// growthFit is a fitted power law ns/op ~ N^exponent over one entry
// family measured at several corpus sizes: the least-squares slope of
// log(ns/op) against log(N). An exponent near 0 means per-ingest cost
// is flat in corpus size; 1 means linear.
type growthFit struct {
	Name     string  `json:"name"`
	Sizes    []int   `json:"sizes"`
	NsPerOp  []int64 `json:"nsPerOp"`
	Exponent float64 `json:"exponent"`
}

// revisionsSweep is the version-diff engine's evaluation block: culprit
// detection and gate behavior over seeded regression chains, and the
// cross-version cache-reuse evidence (ISSUE 9 acceptance records both
// here).
type revisionsSweep struct {
	RegressionChains  int     `json:"regressionChains"`
	Detected          int     `json:"detected"`
	DetectionAccuracy float64 `json:"detectionAccuracy"`
	GateCaught        int     `json:"gateCaught"`
	CleanChains       int     `json:"cleanChains"`
	CleanHops         int     `json:"cleanHops"`
	FalseTrips        int     `json:"falseTrips"`
	// MeanSharedFraction is how much of each version's corpus the
	// delta-fed analyzer carried over unchanged from the parent;
	// RevisitCacheHitRate is the Step-1 cache hit rate when a chain is
	// revisited (revert/bisect access pattern).
	MeanSharedFraction  float64 `json:"meanSharedFraction"`
	RevisitCacheHitRate float64 `json:"revisitCacheHitRate"`
	RevisitChains       int     `json:"revisitChains"`
}

// fleetSweep is the fleet benchmark's BENCH_sweep block: the sharded
// ingest path (one listener → hashed shards → group-commit log → one
// incremental analysis service) measured end to end: QPS, ack latency,
// fsync amortization and report staleness.
type fleetSweep struct {
	Sessions        int     `json:"sessions"`
	Apps            int     `json:"apps"`
	Shards          int     `json:"shards"`
	Uploaders       int     `json:"uploaders"`
	ElapsedNs       int64   `json:"elapsedNs"`
	QPS             float64 `json:"qps"`
	AckP50Ns        int64   `json:"ackP50Ns"`
	AckP99Ns        int64   `json:"ackP99Ns"`
	FsyncsPerBundle float64 `json:"fsyncsPerBundle"`
	StalenessP50Ns  int64   `json:"stalenessP50Ns"`
	StalenessP99Ns  int64   `json:"stalenessP99Ns"`
	AnalyzedApps    int     `json:"analyzedApps"`
}

// sweepReport is the BENCH_sweep.json document.
type sweepReport struct {
	GoVersion  string          `json:"goVersion"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	NumCPU     int             `json:"numCPU"`
	Seed       int64           `json:"seed"`
	Entries    []sweepEntry    `json:"entries"`
	Growth     []growthFit     `json:"growth,omitempty"`
	Revisions  *revisionsSweep `json:"revisions,omitempty"`
	Fleet      *fleetSweep     `json:"fleet,omitempty"`
}

// timeOne runs fn under testing.Benchmark and records per-op stats plus
// whole-run runtime.MemStats deltas (including warm-up iterations).
func timeOne(name string, workers int, fn func(b *testing.B)) sweepEntry {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := testing.Benchmark(fn)
	runtime.ReadMemStats(&after)
	return sweepEntry{
		Name:        name,
		Workers:     workers,
		Iterations:  res.N,
		NsPerOp:     res.NsPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
		TotalAllocB: after.TotalAlloc - before.TotalAlloc,
		NumGC:       after.NumGC - before.NumGC,
		GCPauseNs:   after.PauseTotalNs - before.PauseTotalNs,
	}
}

// TestBenchSweepJSON times the analysis pipeline and the full Table III
// sweep serial vs pooled and writes the results as JSON to the path in
// BENCH_SWEEP_OUT. Skipped when the variable is unset, so it costs
// nothing in a normal `go test` run. Regenerate the checked-in file
// with:
//
//	BENCH_SWEEP_OUT=BENCH_sweep.json go test -run TestBenchSweepJSON .
func TestBenchSweepJSON(t *testing.T) {
	out := os.Getenv("BENCH_SWEEP_OUT")
	if out == "" {
		t.Skip("set BENCH_SWEEP_OUT=<path> to emit the timing sweep")
	}
	report := sweepReport{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Seed:       benchSeed,
	}

	app, err := apps.K9Mail()
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.DefaultConfig(app, benchSeed)
	cfg.Users = 20
	cfg.ImpactedFraction = 0.2
	corpus, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	analyzeBench := func(workers int) func(b *testing.B) {
		return func(b *testing.B) {
			acfg := core.DefaultConfig()
			acfg.DeveloperImpactPercent = corpus.ImpactedPercent
			acfg.Parallelism = workers
			analyzer, err := core.NewAnalyzer(acfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := analyzer.Analyze(corpus.Bundles); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	table3Bench := func(workers int) func(b *testing.B) {
		return func(b *testing.B) {
			experiments.SetParallelism(workers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				workload.FlushCache()
				if _, err := experiments.RunTable3(benchSeed); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	defer experiments.SetParallelism(0)

	pairs := []struct {
		serial, parallel sweepEntry
	}{
		{
			timeOne("analyze/serial", 1, analyzeBench(1)),
			timeOne("analyze/parallel", 0, analyzeBench(0)),
		},
		{
			timeOne("table3/serial", 1, table3Bench(1)),
			timeOne("table3/parallel", 0, table3Bench(0)),
		},
	}
	for _, p := range pairs {
		if p.parallel.NsPerOp > 0 {
			p.parallel.Speedup = float64(p.serial.NsPerOp) / float64(p.parallel.NsPerOp)
		}
		report.Entries = append(report.Entries, p.serial, p.parallel)
	}

	// Pool serial fast path: at GOMAXPROCS=1 the "parallel" analyze
	// configuration resolves to one effective worker and must degenerate
	// to a plain loop. Before parallel.ForEach grew its fast path this
	// sat at 0.83x serial (per-task gauge/histogram instrumentation);
	// fail the sweep if that regression comes back.
	if runtime.GOMAXPROCS(0) == 1 && pairs[0].parallel.NsPerOp > 0 {
		speedup := float64(pairs[0].serial.NsPerOp) / float64(pairs[0].parallel.NsPerOp)
		if speedup < 0.9 {
			t.Errorf("analyze/parallel at GOMAXPROCS=1 runs at %.2fx serial, want >= 0.9x (pool serial fast path regressed)", speedup)
		}
	}

	// Per-stage allocation profile: each of the four pipeline stages in
	// isolation (serial), matching the allocation gate's entries.
	stageCfg := core.DefaultConfig()
	stageCfg.DeveloperImpactPercent = corpus.ImpactedPercent
	stageCfg.Parallelism = 1
	sb, err := core.NewStageBench(stageCfg, corpus.Bundles)
	if err != nil {
		t.Fatal(err)
	}
	stageBench := func(fn func() error) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := fn(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	report.Entries = append(report.Entries,
		timeOne("stage/step1", 1, stageBench(sb.StepOne)),
		timeOne("stage/rank", 1, stageBench(sb.RankAndBase)),
		timeOne("stage/normalize", 1, stageBench(func() error { sb.Normalize(); return nil })),
		timeOne("stage/detect", 1, stageBench(sb.Detect)),
	)

	// Incremental engine: re-analysis after one bundle joins an
	// already-analyzed corpus. Batch redoes Step 1 for all N bundles;
	// the sublinear engine does Step-1 work only for the bundle that
	// changed — a single add costs at most one content-keyed cache
	// lookup, regardless of corpus size.
	incCfg := core.DefaultConfig()
	incCfg.DeveloperImpactPercent = corpus.ImpactedPercent
	n := len(corpus.Bundles)
	inc, err := core.NewIncrementalAnalyzer(incCfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, bd := range corpus.Bundles[:n-1] {
		inc.Add(bd)
	}
	if _, err := inc.Report(); err != nil {
		t.Fatal(err)
	}
	before := inc.CacheStats()
	inc.Add(corpus.Bundles[n-1])
	if _, err := inc.Report(); err != nil {
		t.Fatal(err)
	}
	after := inc.CacheStats()
	if dl := after.Lookups - before.Lookups; dl > 1 {
		t.Fatalf("single-add re-analysis did %d Step-1 cache lookups, want <= 1: Step-1 work is not O(1) per ingest", dl)
	}

	incBench := func(b *testing.B) {
		inc, err := core.NewIncrementalAnalyzer(incCfg, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, bd := range corpus.Bundles[:n-1] {
			inc.Add(bd)
		}
		if _, err := inc.Report(); err != nil {
			b.Fatal(err)
		}
		last := corpus.Bundles[n-1]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			key, _ := inc.Add(last)
			if _, err := inc.Report(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			inc.Remove(key)
			inc.Refresh() // apply the retraction now, or the next Add would cancel it
			b.StartTimer()
		}
	}
	batchEntry := timeOne("reanalyze-after-add/batch", 0, analyzeBench(0))
	incEntry := timeOne("reanalyze-after-add/incremental", 0, incBench)
	lifetime := inc.CacheStats()
	if lifetime.Lookups > 0 {
		incEntry.CacheHitRate = float64(lifetime.Hits) / float64(lifetime.Lookups)
	}
	if incEntry.NsPerOp > 0 {
		incEntry.SpeedupVsBatch = float64(batchEntry.NsPerOp) / float64(incEntry.NsPerOp)
	}
	report.Entries = append(report.Entries, batchEntry, incEntry)

	// Corpus-size sweep: summary maintenance (sublinear) vs full report
	// materialization (incremental) at 100 / 1k / 10k bundles, with
	// fitted growth exponents. The sublinear exponent is the headline
	// claim: per-ingest cost must stay ~O(log N).
	sweepEntries, fits := reanalyzeSweep(t, sweepSizes)
	report.Entries = append(report.Entries, sweepEntries...)
	report.Growth = fits
	encodeEntries, encodeFits := reportEncodeSweep(t, sweepSizes)
	report.Entries = append(report.Entries, encodeEntries...)
	report.Growth = append(report.Growth, encodeFits...)

	// Version-chain walk: one delta-fed incremental analyzer across the
	// whole chain vs a fresh batch Analyze per version. Both stay
	// byte-identical (the differential battery pins that); this records
	// the wall-clock ratio. Note the delta walk does NOT win here: with
	// ~40% of bundles changing per hop, the Step-1 work it skips is
	// smaller than the extra cost of materializing each version's report
	// from the order-statistic summaries (Ω(N), ~5x a batch pass — see
	// the reanalyze-after-add/incremental growth entries). The engine's
	// wins are single-bundle churn and revisit/bisect reuse, recorded
	// above and in the revisions block below.
	report.Entries = append(report.Entries, revisionChainBench(t)...)

	// Evaluation block: culprit detection accuracy and gate behavior
	// over seeded regression + clean chains (same sweep the REVISION_GATE
	// CI job enforces floors on).
	revRes, err := experiments.RunRevisions(benchSeed)
	if err != nil {
		t.Fatal(err)
	}
	rr := revRes.(*experiments.RevisionsResult)
	report.Revisions = &revisionsSweep{
		RegressionChains:    rr.RegressionChains,
		Detected:            rr.Detected,
		DetectionAccuracy:   rr.DetectionAccuracy(),
		GateCaught:          rr.GateCaught,
		CleanChains:         rr.CleanChains,
		CleanHops:           rr.CleanHops,
		FalseTrips:          rr.FalseTrips,
		MeanSharedFraction:  rr.MeanShared,
		RevisitCacheHitRate: rr.MeanRevisitRate,
		RevisitChains:       rr.RevisitChains,
	}

	// Fleet-scale ingest: the group-commit log vs the per-bundle-Sync
	// store under the standard 64-uploader load, then the whole sharded
	// fleet (one listener, shards, one analysis service) end to end. The same
	// helpers back TestFleetGate's CI floors.
	report.Entries = append(report.Entries, ingestSweepEntries(t)...)
	report.Fleet, _ = fleetSweepBlock(t, benchSeed)

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}

// sweepSizes are the corpus sizes (sessions ~= bundles) the re-analysis
// growth sweep measures. Shared with TestSublinearGate.
var sweepSizes = []int{100, 1000, 10000}

// sweepCorpus generates a corpus of n light sessions (few browse
// phases, coarse utilization sampling) so the 10k-bundle point stays
// cheap to build while exercising the same event-key population.
func sweepCorpus(tb testing.TB, users int) []*trace.TraceBundle {
	tb.Helper()
	app, err := apps.K9Mail()
	if err != nil {
		tb.Fatal(err)
	}
	cfg := workload.DefaultConfig(app, benchSeed)
	cfg.Users = users
	cfg.ImpactedFraction = 0.2
	cfg.BrowsePhases = 3
	cfg.SamplePeriodMS = 2000
	corpus, err := workload.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return corpus.Bundles
}

// reanalyzeSweep times single-bundle churn against steady-state corpora
// of each size and fits growth exponents across sizes:
//
//   - reanalyze-after-add/sublinear/N: Add + Refresh + Remove + Refresh —
//     pure summary maintenance, the O(E log N) ingest path. The new
//     bundle's own diagnosis (Steps 2-4) is complete when Refresh
//     returns; no corpus-wide report is materialized.
//   - reanalyze-after-add/incremental/N: Add + Report + (untimed-free)
//     Remove + Refresh — the full re-analysis a serving layer runs to
//     publish a refreshed report, which is Ω(N) because the report
//     itself is O(N) bytes.
//
// Used by both TestBenchSweepJSON (records the numbers) and
// TestSublinearGate (fails CI when the sublinear exponent regresses).
func reanalyzeSweep(tb testing.TB, sizes []int) ([]sweepEntry, []growthFit) {
	tb.Helper()
	var entries []sweepEntry
	ns := make([]int, 0, len(sizes))
	subNs := make([]int64, 0, len(sizes))
	incNs := make([]int64, 0, len(sizes))
	for _, size := range sizes {
		bundles := sweepCorpus(tb, size)
		n := len(bundles)
		extra := bundles[n-1]
		subInc := warmChurnAnalyzer(tb, bundles)
		sub := timeOne(fmt.Sprintf("reanalyze-after-add/sublinear/%d", n), 1, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key, _ := subInc.Add(extra)
				subInc.Refresh()
				subInc.Remove(key)
				subInc.Refresh()
			}
		})
		sub.CorpusSize = n

		incInc := warmChurnAnalyzer(tb, bundles)
		inc := timeOne(fmt.Sprintf("reanalyze-after-add/incremental/%d", n), 1, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key, _ := incInc.Add(extra)
				if _, err := incInc.Report(); err != nil {
					b.Fatal(err)
				}
				incInc.Remove(key)
				incInc.Refresh()
			}
		})
		inc.CorpusSize = n

		if sub.NsPerOp > 0 {
			sub.SpeedupVsInc = float64(inc.NsPerOp) / float64(sub.NsPerOp)
		}
		entries = append(entries, sub, inc)
		ns = append(ns, n)
		subNs = append(subNs, sub.NsPerOp)
		incNs = append(incNs, inc.NsPerOp)
	}
	fits := []growthFit{
		{Name: "reanalyze-after-add/sublinear", Sizes: ns, NsPerOp: subNs, Exponent: fitGrowthExponent(ns, subNs)},
		{Name: "reanalyze-after-add/incremental", Sizes: ns, NsPerOp: incNs, Exponent: fitGrowthExponent(ns, incNs)},
	}
	return entries, fits
}

// warmChurnAnalyzer returns an incremental analyzer over all but the
// last bundle, reported once, after one warm-up churn cycle of the last
// bundle so its Step-1 result is in the content-keyed cache before
// timing.
func warmChurnAnalyzer(tb testing.TB, bundles []*trace.TraceBundle) *core.IncrementalAnalyzer {
	tb.Helper()
	n := len(bundles)
	inc, err := core.NewIncrementalAnalyzer(core.DefaultConfig(), 0)
	if err != nil {
		tb.Fatal(err)
	}
	for _, b := range bundles[:n-1] {
		inc.Add(b)
	}
	inc.Refresh()
	if _, _, err := inc.ReportJSON(); err != nil {
		tb.Fatal(err)
	}
	key, _ := inc.Add(bundles[n-1])
	inc.Refresh()
	inc.Remove(key)
	inc.Refresh()
	return inc
}

// reportEncodeSweep times what a serving-layer flush pays to turn one
// more bundle into served bytes, at each corpus size, two ways in the
// same run:
//
//   - reanalyze-after-add/report-marshal/N: Add + Report + json.Marshal,
//     encoding the whole report on every flush.
//   - reanalyze-after-add/report-json/N: Add + ReportJSON, which encodes
//     only the per-trace fragments the refresh dropped.
//
// Both end each iteration with Remove + Refresh so every iteration sees
// the same corpus, and both fit growth exponents across sizes.
func reportEncodeSweep(tb testing.TB, sizes []int) ([]sweepEntry, []growthFit) {
	tb.Helper()
	var entries []sweepEntry
	ns := make([]int, 0, len(sizes))
	marshalNs := make([]int64, 0, len(sizes))
	jsonNs := make([]int64, 0, len(sizes))
	for _, size := range sizes {
		bundles := sweepCorpus(tb, size)
		n := len(bundles)
		extra := bundles[n-1]

		mInc := warmChurnAnalyzer(tb, bundles)
		marshal := timeOne(fmt.Sprintf("reanalyze-after-add/report-marshal/%d", n), 1, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key, _ := mInc.Add(extra)
				r, err := mInc.Report()
				if err != nil {
					b.Fatal(err)
				}
				if _, err := json.Marshal(r); err != nil {
					b.Fatal(err)
				}
				mInc.Remove(key)
				mInc.Refresh()
			}
		})
		marshal.CorpusSize = n

		jInc := warmChurnAnalyzer(tb, bundles)
		enc := timeOne(fmt.Sprintf("reanalyze-after-add/report-json/%d", n), 1, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key, _ := jInc.Add(extra)
				if _, _, err := jInc.ReportJSON(); err != nil {
					b.Fatal(err)
				}
				jInc.Remove(key)
				jInc.Refresh()
			}
		})
		enc.CorpusSize = n
		if enc.NsPerOp > 0 {
			enc.SpeedupVsMarshal = float64(marshal.NsPerOp) / float64(enc.NsPerOp)
		}

		entries = append(entries, marshal, enc)
		ns = append(ns, n)
		marshalNs = append(marshalNs, marshal.NsPerOp)
		jsonNs = append(jsonNs, enc.NsPerOp)
	}
	fits := []growthFit{
		{Name: "reanalyze-after-add/report-marshal", Sizes: ns, NsPerOp: marshalNs, Exponent: fitGrowthExponent(ns, marshalNs)},
		{Name: "reanalyze-after-add/report-json", Sizes: ns, NsPerOp: jsonNs, Exponent: fitGrowthExponent(ns, jsonNs)},
	}
	return entries, fits
}

// revisionChainBench times walking one regression chain (4 versions,
// hold regression at v2, benign rewires elsewhere) two ways: a fresh
// batch Analyze per version vs a single delta-fed incremental analyzer
// syncing add/remove deltas between versions. The delta entry records
// the walk's cross-version Step-1 cache hit rate (0 on a pure forward
// walk — shared bundles are never re-looked-up, only re-added ones).
func revisionChainBench(tb testing.TB) []sweepEntry {
	tb.Helper()
	app, err := apps.K9Mail()
	if err != nil {
		tb.Fatal(err)
	}
	ccfg := revision.ChainConfig{
		App: app, Versions: 4, Seed: benchSeed,
		RegressionAt: 2, Kind: revision.KindHold, Rewires: true,
	}
	chain, err := revision.GenerateChain(ccfg)
	if err != nil {
		tb.Fatal(err)
	}
	corpora, err := revision.ChainCorpora(chain, ccfg, revision.CorpusConfig{Users: 12, Seed: 7, Cached: true})
	if err != nil {
		tb.Fatal(err)
	}
	acfg := core.DefaultConfig()

	batch := timeOne("revision-chain/batch", 1, func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, bundles := range corpora {
				analyzer, err := core.NewAnalyzer(acfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := analyzer.Analyze(bundles); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	var hits, lookups int64
	delta := timeOne("revision-chain/delta", 1, func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a, err := revision.NewAnalyzer(revision.AnalyzeConfig{Core: acfg})
			if err != nil {
				b.Fatal(err)
			}
			for v, bundles := range corpora {
				if _, err := a.AnalyzeVersion(v, bundles); err != nil {
					b.Fatal(err)
				}
			}
			st := a.CacheStats()
			hits, lookups = st.Hits, st.Lookups
		}
	})
	if lookups > 0 {
		delta.CacheHitRate = float64(hits) / float64(lookups)
	}
	if delta.NsPerOp > 0 {
		delta.SpeedupVsBatch = float64(batch.NsPerOp) / float64(delta.NsPerOp)
	}
	return []sweepEntry{batch, delta}
}

// fitGrowthExponent returns the least-squares slope of log(ns/op)
// against log(corpus size): the exponent of the best-fit power law.
func fitGrowthExponent(sizes []int, nsPerOp []int64) float64 {
	var sx, sy, sxx, sxy float64
	n := float64(len(sizes))
	for i := range sizes {
		x := math.Log(float64(sizes[i]))
		y := math.Log(float64(nsPerOp[i]))
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}
