// Package repro's benchmark harness regenerates every table and figure
// of the paper (one benchmark per artifact, delegating to
// internal/experiments) and adds ablation benchmarks for the design
// choices called out in DESIGN.md §5. Headline numbers are attached to
// each benchmark via ReportMetric so `go test -bench` output doubles as
// the paper-vs-measured record.
package repro

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/instrument"
	"repro/internal/trace"
	"repro/internal/workload"
)

const benchSeed = 2020

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, id string, metric func(experiments.Result) (float64, string)) {
	b.Helper()
	run, _, err := experiments.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var last experiments.Result
	for i := 0; i < b.N; i++ {
		res, err := run(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if metric != nil && last != nil {
		v, unit := metric(last)
		b.ReportMetric(v, unit)
	}
}

// --- One benchmark per paper artifact -------------------------------

func BenchmarkFig1EventDistance(b *testing.B) {
	benchExperiment(b, "fig1", func(r experiments.Result) (float64, string) {
		return r.(*experiments.Fig1Result).P90, "p90-events"
	})
}

func BenchmarkFig3K9PowerTrace(b *testing.B) {
	benchExperiment(b, "fig3", func(r experiments.Result) (float64, string) {
		res := r.(*experiments.Fig3Result)
		if res.MeanBeforeMW == 0 {
			return 0, "power-ratio"
		}
		return res.MeanAfterMW / res.MeanBeforeMW, "power-ratio"
	})
}

func BenchmarkFig7K9Diagnosis(b *testing.B) {
	benchExperiment(b, "fig7", func(r experiments.Result) (float64, string) {
		return float64(r.(*experiments.Fig7Result).NormManifestations), "points"
	})
}

func BenchmarkTable2K9Report(b *testing.B) {
	benchExperiment(b, "table2", func(r experiments.Result) (float64, string) {
		return float64(r.(*experiments.Table2Result).DiagnosisLines), "lines"
	})
}

func BenchmarkTable3AllApps(b *testing.B) {
	benchExperiment(b, "table3", func(r experiments.Result) (float64, string) {
		return r.(*experiments.Table3Result).AverageMeas, "pct-reduction"
	})
}

func BenchmarkBaselineComparison(b *testing.B) {
	benchExperiment(b, "baselines", func(r experiments.Result) (float64, string) {
		return r.(*experiments.BaselinesResult).EnergyDxAvg, "pct-reduction"
	})
}

func BenchmarkOpenGPSDiagnosis(b *testing.B) {
	benchExperiment(b, "opengps", func(r experiments.Result) (float64, string) {
		return float64(r.(*experiments.CaseStudyResult).DiagnosisLines), "lines"
	})
}

func BenchmarkFig11OpenGPSBreakdown(b *testing.B) {
	benchExperiment(b, "fig11", func(r experiments.Result) (float64, string) {
		return r.(*experiments.BreakdownResult).MeanTotalMW, "mW"
	})
}

func BenchmarkWallabagDiagnosis(b *testing.B) {
	benchExperiment(b, "wallabag", func(r experiments.Result) (float64, string) {
		return float64(r.(*experiments.CaseStudyResult).DiagnosisLines), "lines"
	})
}

func BenchmarkFig14WallabagBreakdown(b *testing.B) {
	benchExperiment(b, "fig14", func(r experiments.Result) (float64, string) {
		return r.(*experiments.BreakdownResult).MeanTotalMW, "mW"
	})
}

func BenchmarkTinfoilDiagnosis(b *testing.B) {
	benchExperiment(b, "tinfoil", func(r experiments.Result) (float64, string) {
		return float64(r.(*experiments.CaseStudyResult).DiagnosisLines), "lines"
	})
}

func BenchmarkFig16CodeReduction(b *testing.B) {
	benchExperiment(b, "fig16", func(r experiments.Result) (float64, string) {
		return r.(*experiments.Fig16Result).CheckAvgLines, "checkall-lines"
	})
}

func BenchmarkFig17PowerReduction(b *testing.B) {
	benchExperiment(b, "fig17", func(r experiments.Result) (float64, string) {
		return r.(*experiments.Fig17Result).AvgDropPct, "pct-drop"
	})
}

func BenchmarkInstrumentationOverhead(b *testing.B) {
	benchExperiment(b, "overheads", func(r experiments.Result) (float64, string) {
		return r.(*experiments.OverheadsResult).LatencyOverheadPct, "pct-latency"
	})
}

// --- Ablations (DESIGN.md §5) ----------------------------------------

// k9Corpus caches one corpus for the ablation benchmarks.
func k9Corpus(b *testing.B) (*apps.App, *workload.Result) {
	b.Helper()
	app, err := apps.K9Mail()
	if err != nil {
		b.Fatal(err)
	}
	cfg := workload.DefaultConfig(app, benchSeed)
	cfg.Users = 20
	cfg.ImpactedFraction = 0.2
	corpus, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return app, corpus
}

// ablate runs the analysis with a modified configuration and reports the
// resulting code reduction and detection recall.
func ablate(b *testing.B, app *apps.App, corpus *workload.Result, mutate func(*core.Config)) {
	b.Helper()
	cfg := core.DefaultConfig()
	cfg.DeveloperImpactPercent = corpus.ImpactedPercent
	mutate(&cfg)
	analyzer, err := core.NewAnalyzer(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var report *core.Report
	for i := 0; i < b.N; i++ {
		report, err = analyzer.Analyze(corpus.Bundles)
		if err != nil {
			b.Fatal(err)
		}
	}
	cr, err := core.ComputeCodeReduction(report, app.Package(), 6)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(cr.Reduction*100, "pct-reduction")
	b.ReportMetric(float64(report.ImpactedTraces), "impacted-traces")
}

func BenchmarkAblationNormBase(b *testing.B) {
	app, corpus := k9Corpus(b)
	for _, pct := range []float64{5, 10, 25, 50} {
		b.Run(name("p", pct), func(b *testing.B) {
			ablate(b, app, corpus, func(c *core.Config) { c.NormBasePercentile = pct })
		})
	}
}

func BenchmarkAblationFence(b *testing.B) {
	app, corpus := k9Corpus(b)
	for _, k := range []float64{1.5, 3, 4.5, 6} {
		b.Run(name("k", k), func(b *testing.B) {
			ablate(b, app, corpus, func(c *core.Config) { c.FenceMultiplier = k })
		})
	}
}

func BenchmarkAblationWindow(b *testing.B) {
	app, corpus := k9Corpus(b)
	for _, w := range []int{0, 1, 2, 4, 8} {
		b.Run(name("w", float64(w)), func(b *testing.B) {
			ablate(b, app, corpus, func(c *core.Config) { c.WindowEvents = w })
		})
	}
}

func BenchmarkAblationMinAmplitude(b *testing.B) {
	app, corpus := k9Corpus(b)
	for _, a := range []float64{0, 0.25, 0.5, 1, 2} {
		b.Run(name("a", a), func(b *testing.B) {
			ablate(b, app, corpus, func(c *core.Config) { c.MinAmplitude = a })
		})
	}
}

func BenchmarkAblationAmplitude(b *testing.B) {
	app, corpus := k9Corpus(b)
	b.Run("monotone-run", func(b *testing.B) {
		ablate(b, app, corpus, func(c *core.Config) { c.SingleStepAmplitude = false })
	})
	b.Run("single-step", func(b *testing.B) {
		ablate(b, app, corpus, func(c *core.Config) { c.SingleStepAmplitude = true })
	})
}

func BenchmarkAblationSampling(b *testing.B) {
	app, err := apps.K9Mail()
	if err != nil {
		b.Fatal(err)
	}
	for _, period := range []int64{250, 500, 1000, 2000} {
		b.Run(name("ms", float64(period)), func(b *testing.B) {
			cfg := workload.DefaultConfig(app, benchSeed)
			cfg.Users = 20
			cfg.ImpactedFraction = 0.2
			cfg.SamplePeriodMS = period
			corpus, err := workload.Generate(cfg)
			if err != nil {
				b.Fatal(err)
			}
			ablate(b, app, corpus, func(c *core.Config) {})
		})
	}
}

// name builds a stable sub-benchmark name like "k=1.5" or "w=2".
func name(prefix string, v float64) string {
	return prefix + "=" + strconv.FormatFloat(v, 'f', -1, 64)
}

// --- Pipeline micro-benchmarks ---------------------------------------

// BenchmarkAnalyzePipeline measures raw 5-step analysis throughput on a
// fixed 20-user corpus (no workload generation in the loop).
func BenchmarkAnalyzePipeline(b *testing.B) {
	_, corpus := k9Corpus(b)
	cfg := core.DefaultConfig()
	cfg.DeveloperImpactPercent = corpus.ImpactedPercent
	analyzer, err := core.NewAnalyzer(cfg)
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

// BenchmarkAnalyzeParallelism compares the serial pipeline against the
// pooled fan-out (Steps 1-4) on the same fixed corpus. Reports are
// byte-identical either way; only the wall clock differs.
func BenchmarkAnalyzeParallelism(b *testing.B) {
	_, corpus := k9Corpus(b)
	for _, bc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.DeveloperImpactPercent = corpus.ImpactedPercent
			cfg.Parallelism = bc.workers
			analyzer, err := core.NewAnalyzer(cfg)
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
		})
	}
}

// BenchmarkTable3Parallelism compares the full 40-app Table III sweep
// serial vs pooled. The corpus cache is flushed every iteration so both
// variants pay the same (cold) generation cost.
func BenchmarkTable3Parallelism(b *testing.B) {
	defer experiments.SetParallelism(0)
	for _, bc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			experiments.SetParallelism(bc.workers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				workload.FlushCache()
				if _, err := experiments.RunTable3(benchSeed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWorkloadGeneration measures corpus simulation throughput.
func BenchmarkWorkloadGeneration(b *testing.B) {
	app, err := apps.ByAppID("tinfoil")
	if err != nil {
		b.Fatal(err)
	}
	cfg := workload.DefaultConfig(app, benchSeed)
	cfg.Users = 10
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := workload.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInstrumenter measures the APK instrumentation pipeline on the
// 98k-line K-9 package.
func BenchmarkInstrumenter(b *testing.B) {
	app, err := apps.K9Mail()
	if err != nil {
		b.Fatal(err)
	}
	pool := instrument.DefaultPool()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := instrument.Instrument(app.Package(), pool); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckAllBaseline measures the CheckAll baseline on a corpus.
func BenchmarkCheckAllBaseline(b *testing.B) {
	_, corpus := k9Corpus(b)
	cfg := baseline.DefaultCheckAllConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.CheckAll(cfg, corpus.Bundles); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceTextCodec measures the Fig-5 text round trip on a
// realistic session trace.
func BenchmarkTraceTextCodec(b *testing.B) {
	_, corpus := k9Corpus(b)
	ev := corpus.Bundles[0].Event
	text := ev.Text()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.ReadText(strings.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReportJSONAfterAdd times the analyzer's share of serving one
// upload to a hot app: over a warm 5,000-session K9Mail corpus, each op
// is Add + ReportJSON + Remove + Refresh, so every op re-ranks the
// corpus and re-encodes its rank columns. Parallelism is 0 (GOMAXPROCS),
// so `-cpu 1,2` compares the serial refresh with the fan-out.
func BenchmarkReportJSONAfterAdd(b *testing.B) {
	app, err := apps.K9Mail()
	if err != nil {
		b.Fatal(err)
	}
	cfg := workload.DefaultConfig(app, benchSeed)
	cfg.Users = 5001
	corpus, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	inc := warmChurnAnalyzer(b, corpus.Bundles)
	extra := corpus.Bundles[len(corpus.Bundles)-1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key, _ := inc.Add(extra)
		if _, _, err := inc.ReportJSON(); err != nil {
			b.Fatal(err)
		}
		inc.Remove(key)
		inc.Refresh()
	}
}
