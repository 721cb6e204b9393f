package repro

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The allocation gate pins the hot path's allocation profile: each
// gated benchmark's allocs/op and bytes/op must stay within
// allocGateSlackPct of the checked-in BENCH_alloc_baseline.json. The
// gate is opt-in (a benchmark run costs seconds) and is enforced in CI:
//
//	ALLOC_GATE=1      go test -run TestAllocGate .   # enforce
//	ALLOC_GATE=update go test -run TestAllocGate .   # regenerate baseline
//
// Only regressions fail; improvements pass with a notice to re-baseline.

const (
	allocBaselinePath = "BENCH_alloc_baseline.json"
	allocGateSlackPct = 10
)

type allocEntry struct {
	AllocsPerOp int64 `json:"allocsPerOp"`
	BytesPerOp  int64 `json:"bytesPerOp"`
}

type allocBaseline struct {
	Note    string                `json:"note"`
	Entries map[string]allocEntry `json:"entries"`
}

// gatedBenchmarks are the measurements under the gate. All run serial
// so the counts are reproducible across worker counts.
func gatedBenchmarks(t *testing.T) map[string]allocEntry {
	app, err := apps.K9Mail()
	if err != nil {
		t.Fatal(err)
	}
	wcfg := workload.DefaultConfig(app, benchSeed)
	wcfg.Users = 20
	wcfg.ImpactedFraction = 0.2
	corpus, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.DeveloperImpactPercent = corpus.ImpactedPercent
	cfg.Parallelism = 1
	analyzer, err := core.NewAnalyzer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := core.NewStageBench(cfg, corpus.Bundles)
	if err != nil {
		t.Fatal(err)
	}
	text := corpus.Bundles[0].Event.Text()
	// The incremental analyzer holds all but the last bundle; each
	// add-report op adds that one and removes it again.
	inc, err := core.NewIncrementalAnalyzer(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	held := corpus.Bundles[len(corpus.Bundles)-1]
	for _, b := range corpus.Bundles[:len(corpus.Bundles)-1] {
		inc.Add(b)
	}
	if _, err := inc.Report(); err != nil {
		t.Fatal(err)
	}
	// The same corpus again for the serving path, with every fragment
	// encoded: each add-reportjson op pays what one flush after one
	// upload does, which is O(change) — a body-sized buffer fails it.
	jsonInc, err := core.NewIncrementalAnalyzer(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range corpus.Bundles[:len(corpus.Bundles)-1] {
		jsonInc.Add(b)
	}
	if _, _, err := jsonInc.ReportJSON(); err != nil {
		t.Fatal(err)
	}

	benches := map[string]func(b *testing.B){
		"analyze/serial": func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := analyzer.Analyze(corpus.Bundles); err != nil {
					b.Fatal(err)
				}
			}
		},
		"stage/step1": func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := sb.StepOne(); err != nil {
					b.Fatal(err)
				}
			}
		},
		"stage/rank": func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := sb.RankAndBase(); err != nil {
					b.Fatal(err)
				}
			}
		},
		"stage/normalize": func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sb.Normalize()
			}
		},
		"stage/detect": func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := sb.Detect(); err != nil {
					b.Fatal(err)
				}
			}
		},
		"incremental/add-report": func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				key, _ := inc.Add(held)
				if _, err := inc.Report(); err != nil {
					b.Fatal(err)
				}
				inc.Remove(key)
				if _, err := inc.Report(); err != nil {
					b.Fatal(err)
				}
			}
		},
		"incremental/add-reportjson": func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				key, _ := jsonInc.Add(held)
				if _, _, err := jsonInc.ReportJSON(); err != nil {
					b.Fatal(err)
				}
				jsonInc.Remove(key)
				if _, _, err := jsonInc.ReportJSON(); err != nil {
					b.Fatal(err)
				}
			}
		},
		"trace/content-key": func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				trace.ContentKey(corpus.Bundles[0])
			}
		},
		"codec/readtext": func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := trace.ReadText(strings.NewReader(text)); err != nil {
					b.Fatal(err)
				}
			}
		},
	}
	got := make(map[string]allocEntry, len(benches))
	for name, fn := range benches {
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			fn(b)
		})
		got[name] = allocEntry{AllocsPerOp: res.AllocsPerOp(), BytesPerOp: res.AllocedBytesPerOp()}
	}
	return got
}

func TestAllocGate(t *testing.T) {
	mode := os.Getenv("ALLOC_GATE")
	if mode == "" {
		t.Skip("set ALLOC_GATE=1 to enforce, ALLOC_GATE=update to regenerate the baseline")
	}
	got := gatedBenchmarks(t)

	if mode == "update" {
		doc := allocBaseline{
			Note:    fmt.Sprintf("Serial allocation baseline for the gated hot paths; regenerate with ALLOC_GATE=update. Gate fails on >%d%% regression.", allocGateSlackPct),
			Entries: got,
		}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(allocBaselinePath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", allocBaselinePath)
		return
	}

	data, err := os.ReadFile(allocBaselinePath)
	if err != nil {
		t.Fatalf("no baseline: %v (run ALLOC_GATE=update to create it)", err)
	}
	var base allocBaseline
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}

	names := make([]string, 0, len(base.Entries))
	for name := range base.Entries {
		names = append(names, name)
	}
	sort.Strings(names)
	over := func(got, want int64) bool {
		return float64(got) > float64(want)*(1+allocGateSlackPct/100.0)
	}
	for _, name := range names {
		want := base.Entries[name]
		cur, ok := got[name]
		if !ok {
			t.Errorf("%s: in baseline but no longer measured; run ALLOC_GATE=update", name)
			continue
		}
		if over(cur.AllocsPerOp, want.AllocsPerOp) {
			t.Errorf("%s: allocs/op regressed: %d vs baseline %d (+%d%% allowed)",
				name, cur.AllocsPerOp, want.AllocsPerOp, allocGateSlackPct)
		}
		if over(cur.BytesPerOp, want.BytesPerOp) {
			t.Errorf("%s: bytes/op regressed: %d vs baseline %d (+%d%% allowed)",
				name, cur.BytesPerOp, want.BytesPerOp, allocGateSlackPct)
		}
		if !t.Failed() && (cur.AllocsPerOp*2 < want.AllocsPerOp || cur.BytesPerOp*2 < want.BytesPerOp) {
			t.Logf("%s: improved well past baseline (%d allocs, %d B vs %d, %d) — consider ALLOC_GATE=update",
				name, cur.AllocsPerOp, cur.BytesPerOp, want.AllocsPerOp, want.BytesPerOp)
		}
	}
	for name := range got {
		if _, ok := base.Entries[name]; !ok {
			t.Errorf("%s: measured but missing from baseline; run ALLOC_GATE=update", name)
		}
	}
}
