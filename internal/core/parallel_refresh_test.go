package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/trace"
	"repro/internal/workload"
)

// parallelismLevels are the worker counts the fan-out differential
// compares: the serial loop, two workers, and more workers than CPUs.
var parallelismLevels = []int{1, 2, 8}

// lightPool generates n light K9Mail sessions (few browse phases,
// coarse utilization sampling): the same event-key population as
// bundlePool at a fraction of the analysis cost, so corpora spanning
// several chunks stay quick under the race detector.
func lightPool(t *testing.T, n int, seed int64) []*trace.TraceBundle {
	t.Helper()
	app, err := apps.K9Mail()
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.DefaultConfig(app, seed)
	cfg.Users = n
	cfg.ImpactedFraction = 0.25
	cfg.BrowsePhases = 3
	cfg.SamplePeriodMS = 2000
	corpus, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return corpus.Bundles
}

// analyzersAt returns one incremental analyzer per parallelism level
// over cfg.
func analyzersAt(t *testing.T, cfg core.Config) []*core.IncrementalAnalyzer {
	t.Helper()
	incs := make([]*core.IncrementalAnalyzer, len(parallelismLevels))
	for i, p := range parallelismLevels {
		c := cfg
		c.Parallelism = p
		inc, err := core.NewIncrementalAnalyzer(c, 0)
		if err != nil {
			t.Fatal(err)
		}
		incs[i] = inc
	}
	return incs
}

// TestIncrementalMatchesBatchAtAnyParallelism is the differential
// harness of the fanned-out refresh. The corpus spans several
// MinRefreshChunk chunks, so at 2 and 8 workers Steps 2–4 and the
// fragment encode run on the pool, and it is churned with adds,
// removes and re-adds that leave both the rank-dirty and the
// detect-dirty sets covering several chunks. After every step each
// analyzer's Report bytes, ReportJSON body bytes and Digest must equal
// the batch report's EncodeReport, and the fragments each one encoded
// (core_report_fragments_encoded_total) must be the same at every
// worker count.
func TestIncrementalMatchesBatchAtAnyParallelism(t *testing.T) {
	warm := 3*core.MinRefreshChunk + core.MinRefreshChunk/4
	pool := lightPool(t, warm+16, 71)
	cfg := core.DefaultConfig()
	batch, err := core.NewAnalyzer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	incs := analyzersAt(t, cfg)

	var m mirror
	var removed []*trace.TraceBundle
	next := 0
	add := func(b *trace.TraceBundle) {
		var key string
		for _, inc := range incs {
			k, added := inc.Add(b)
			if !added {
				t.Fatalf("add of absent bundle %s reported as duplicate", k)
			}
			key = k
		}
		m.add(key, b)
	}
	remove := func(key string) {
		for i, k := range m.keys {
			if k == key {
				removed = append(removed, m.bundles[i])
			}
		}
		for _, inc := range incs {
			if !inc.Remove(key) {
				t.Fatalf("remove of present key %s returned false", key)
			}
		}
		m.remove(key)
	}
	for next < warm {
		add(pool[next])
		next++
	}

	var maxRank, maxDetect int
	check := func(step string) {
		t.Helper()
		want, err := batch.Analyze(m.bundles)
		if err != nil {
			t.Fatalf("%s: batch: %v", step, err)
		}
		wj := reportJSON(t, want)
		wantDigest := encodeReport(t, want).Digest
		var firstDelta [3]float64
		for i, inc := range incs {
			what := fmt.Sprintf("%s, parallelism %d", step, parallelismLevels[i])
			h0, r0, t0 := fragmentCounts(t)
			rep, body, err := inc.ReportJSON()
			h1, r1, t1 := fragmentCounts(t)
			st := inc.SummaryStats()
			assertReportJSON(t, what, rep, body, err, wj)
			if body.Digest != wantDigest {
				t.Fatalf("%s: ReportJSON digest differs from EncodeReport of the batch report", what)
			}
			again, err := inc.Report()
			if err != nil {
				t.Fatalf("%s: Report: %v", what, err)
			}
			if !bytes.Equal(reportJSON(t, again), wj) {
				t.Fatalf("%s: Report bytes differ from the batch report", what)
			}
			delta := [3]float64{h1 - h0, r1 - r0, t1 - t0}
			if i == 0 {
				firstDelta = delta
				maxRank, maxDetect = max(maxRank, st.RankDirtyTraces), max(maxDetect, st.DetectDirtyTraces)
			} else if delta != firstDelta {
				t.Fatalf("%s: encoded %v head/rank/tail fragments, serial encoded %v", what, delta, firstDelta)
			}
		}
	}
	check("cold")

	rng := rand.New(rand.NewSource(71))
	for step := 0; step < 8; step++ {
		switch step % 4 {
		case 0: // one upload
			add(pool[next])
			next++
		case 1: // retract a few traces from different chunks
			for j := 0; j < 3; j++ {
				remove(m.keys[rng.Intn(len(m.keys))])
			}
		case 2: // re-add what was retracted, plus a new upload
			for _, b := range removed {
				add(b)
			}
			removed = removed[:0]
			add(pool[next])
			next++
		case 3: // a burst of uploads
			for j := 0; j < 5; j++ {
				add(pool[next])
				next++
			}
		}
		check(fmt.Sprintf("step %d", step))
	}
	// The fan-out only runs above one chunk: the churn must have left
	// several chunks stale, or the parallel path went untested.
	if maxRank < 2*core.MinRefreshChunk || maxDetect < 2*core.MinRefreshChunk {
		t.Fatalf("largest stale sets were %d rank-dirty and %d detect-dirty traces; want both >= %d",
			maxRank, maxDetect, 2*core.MinRefreshChunk)
	}
}

// poisonKeys returns a copy of b with every event key moved to a class
// no other bundle uses, under a new trace ID and device.
func poisonKeys(b *trace.TraceBundle, id, dev string) *trace.TraceBundle {
	c := *b
	c.Key = ""
	c.Event.TraceID = id
	c.Event.Device = dev
	c.Event.Records = append([]trace.Record(nil), b.Event.Records...)
	for i := range c.Event.Records {
		c.Event.Records[i].Key.Class = "Lpoison/" + c.Event.Records[i].Key.Class
	}
	return &c
}

// TestIncrementalErrorsMatchBatchAtAnyParallelism pins the fanned-out
// refresh's error semantics to batch at every worker count: a
// strict-mode invalid trace, and a Step-4 detection error raised by
// traces in two different chunks, surface as the batch pipeline's
// error — the lowest-index one — and once the culprits leave, the next
// report is batch-identical again.
func TestIncrementalErrorsMatchBatchAtAnyParallelism(t *testing.T) {
	pool := lightPool(t, 3*core.MinRefreshChunk+core.MinRefreshChunk/4, 73)
	// A device whose estimated powers are subnormal but finite: as the
	// 10th percentile of a key's powers it makes every other trace's
	// normalized power of that key overflow to +Inf, which Step 4's
	// fence computation rejects.
	devs := device.NewRegistry()
	faint := device.Profile{Name: "faint", BaseMW: 1e-320}
	faint.CoeffMW[int(trace.GPS)-1] = 1
	devs.Register(faint)
	cfg := core.DefaultConfig()
	cfg.Devices = devs

	// Healthy traces on the poisoned keys sit in the second and third
	// chunks, and faint ones after them.
	chunk := core.MinRefreshChunk
	corpus := append([]*trace.TraceBundle(nil), pool...)
	victims := []int{chunk + chunk/2, 2*chunk + chunk/2}
	for n, i := range victims {
		corpus[i] = poisonKeys(pool[i], fmt.Sprintf("victim-%d", n), pool[i].Event.Device)
	}
	faintAt := []int{3*chunk + 1, 3*chunk + 2, 3*chunk + 3, 3*chunk + 4}
	for n, i := range faintAt {
		corpus[i] = poisonKeys(pool[victims[n%len(victims)]], fmt.Sprintf("faint-%d", n), "faint")
	}
	invalid := *pool[2*chunk+1]
	invalid.Key = ""
	invalid.Event.Device = "no-such-device"

	cases := []struct {
		name   string
		corpus []*trace.TraceBundle
		strict bool
	}{
		{"detect error", corpus, false},
		{"strict invalid trace", append(append([]*trace.TraceBundle(nil), pool[:2*chunk+1]...), append([]*trace.TraceBundle{&invalid}, pool[2*chunk+1:]...)...), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			batch, err := core.NewAnalyzer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			_, wantErr := batch.Analyze(c.corpus)
			if wantErr == nil {
				t.Fatal("batch analysis of the corpus succeeded; the case no longer raises its error")
			}
			t.Logf("batch error: %v", wantErr)
			incs := analyzersAt(t, cfg)
			for i, inc := range incs {
				var keys []string
				for _, b := range c.corpus {
					k, _ := inc.Add(b)
					keys = append(keys, k)
				}
				for round := 0; round < 2; round++ { // the error must persist, not be folded away
					rep, body, err := inc.ReportJSON()
					if rep != nil || body != nil || err == nil || err.Error() != wantErr.Error() {
						t.Fatalf("parallelism %d, round %d: ReportJSON = (%v, %v, %v), want error %v",
							parallelismLevels[i], round, rep, body, err, wantErr)
					}
				}
				// Retract the culprits: the traces folded before the
				// failure, and those detected but never folded after it,
				// must all come out batch-identical.
				var rest []*trace.TraceBundle
				for j, b := range c.corpus {
					culprit := b.Event.Device == "faint" || b.Event.Device == "no-such-device"
					if culprit {
						inc.Remove(keys[j])
					} else {
						rest = append(rest, b)
					}
				}
				want, err := batch.Analyze(rest)
				if err != nil {
					t.Fatalf("batch without the culprits: %v", err)
				}
				rep, body, err := inc.ReportJSON()
				assertReportJSON(t, fmt.Sprintf("parallelism %d, culprits removed", parallelismLevels[i]), rep, body, err, reportJSON(t, want))
			}
		})
	}
}

// lruModel is the Step-1 cache's accounting as the serial apply loop
// drives it: one get per applied add in queue order, and a put after
// each miss that evicts the least recently used key beyond capacity.
type lruModel struct {
	capacity int
	keys     []string // most recently used last
	st       core.CacheStats
}

func (m *lruModel) add(key string) {
	m.st.Lookups++
	if i := slices.Index(m.keys, key); i >= 0 {
		m.st.Hits++
		m.keys = append(append(m.keys[:i:i], m.keys[i+1:]...), key)
		return
	}
	m.st.Misses++
	m.keys = append(m.keys, key)
	if len(m.keys) > m.capacity {
		m.keys = m.keys[1:]
		m.st.Evictions++
	}
}

func (m *lruModel) stats() core.CacheStats {
	st := m.st
	st.Capacity, st.Size = m.capacity, len(m.keys)
	return st
}

// TestStepOneCacheAccountingAtAnyParallelism pins that estimating a
// flush's Step 1 ahead over the workers leaves the cache's accounting
// to the serial loop: with a cache smaller than one flush (capacity
// 100, a 300-bundle cold load), then removes and re-adds of keys the
// flush's own puts evict after the fan-out peeked them, CacheStats
// after every report must equal a serial LRU model at parallelism 1, 2
// and 8, and every served body must equal the batch report's bytes.
func TestStepOneCacheAccountingAtAnyParallelism(t *testing.T) {
	const capacity, cold = 100, 300
	pool := lightPool(t, cold+20, 29)
	batch, err := core.NewAnalyzer(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	incs := make([]*core.IncrementalAnalyzer, len(parallelismLevels))
	for i, p := range parallelismLevels {
		cfg := core.DefaultConfig()
		cfg.Parallelism = p
		if incs[i], err = core.NewIncrementalAnalyzer(cfg, capacity); err != nil {
			t.Fatal(err)
		}
	}
	model := lruModel{capacity: capacity}
	var m mirror
	add := func(b *trace.TraceBundle) {
		var key string
		for _, inc := range incs {
			key, _ = inc.Add(b)
		}
		m.add(key, b)
		model.add(key)
	}
	remove := func(key string) {
		for _, inc := range incs {
			if !inc.Remove(key) {
				t.Fatalf("remove of present key %s returned false", key)
			}
		}
		m.remove(key)
	}
	check := func(step string) {
		t.Helper()
		want, err := batch.Analyze(m.bundles)
		if err != nil {
			t.Fatalf("%s: batch: %v", step, err)
		}
		wj := reportJSON(t, want)
		for i, inc := range incs {
			what := fmt.Sprintf("%s, parallelism %d", step, parallelismLevels[i])
			rep, body, err := inc.ReportJSON()
			assertReportJSON(t, what, rep, body, err, wj)
			if got, want := inc.CacheStats(), model.stats(); got != want {
				t.Fatalf("%s: cache stats %+v, serial model %+v", what, got, want)
			}
		}
	}

	for _, b := range pool[:cold] {
		add(b)
	}
	check("cold load")
	// The cache now holds the last 100 keys. Retract the last 150 and
	// re-add them in order: the first 50 misses evict keys the flush's
	// later gets then miss, so those are estimated inline.
	tail := append([]string(nil), m.keys[cold-150:]...)
	tailBundles := append([]*trace.TraceBundle(nil), m.bundles[cold-150:]...)
	for _, k := range tail {
		remove(k)
	}
	check("remove 150")
	for _, b := range tailBundles {
		add(b)
	}
	check("re-add 150")
	// Retract the first 160 keys and 50 the cache still holds, then
	// re-add them in one flush with 20 new uploads and 10 removes: the
	// cached 50 come first and hit, the rest miss and fan out.
	first := append([]*trace.TraceBundle(nil), m.bundles[:160]...)
	for _, k := range append(append([]string(nil), m.keys[:160]...), tail[100:]...) {
		remove(k)
	}
	check("remove 210")
	for _, b := range append(append(tailBundles[100:], first...), pool[cold:]...) {
		add(b)
	}
	for _, k := range append([]string(nil), m.keys[20:30]...) {
		remove(k)
	}
	check("re-add 210, add 20, remove 10")
}
