package core

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/trace"
)

// finishFromStepOne runs Steps 2–5 over prepared Step-1 outputs through
// the same finish path both engines use; the metamorphic properties
// below are statements about exactly this stage of the pipeline.
func finishFromStepOne(t *testing.T, a *Analyzer, bundles []*trace.TraceBundle, traces []*AnalyzedTrace) *Report {
	t.Helper()
	tr := obs.NewTracer()
	root := tr.Start("analyze")
	s1 := root.Child("step1.estimate")
	rec1 := s1.End()
	report, err := a.finish(bundles, traces, nil, root, rec1)
	if err != nil {
		t.Fatal(err)
	}
	return report
}

// stepOneAllOrFatal computes fresh Step-1 outputs for every bundle.
func stepOneAllOrFatal(t *testing.T, a *Analyzer, bundles []*trace.TraceBundle) []*AnalyzedTrace {
	t.Helper()
	out := make([]*AnalyzedTrace, len(bundles))
	for i, b := range bundles {
		at, err := a.StepOne(b)
		if err != nil {
			t.Fatalf("step 1 on bundle %d: %v", i, err)
		}
		out[i] = at
	}
	return out
}

// TestMetamorphicPermutationInvariance: Steps 2–5 aggregate over the
// corpus as a set, so permuting the bundle order must not change any
// per-trace analysis vector (matched by trace ID) nor the Step-5
// impact table — only the order of Report.Traces.
func TestMetamorphicPermutationInvariance(t *testing.T) {
	corpus := multiDeviceCorpus(t, 61)
	analyzer, err := NewAnalyzer(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	base, err := analyzer.Analyze(corpus.Bundles)
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[string][]byte, len(base.Traces))
	for _, at := range base.Traces {
		data, err := json.Marshal(at)
		if err != nil {
			t.Fatal(err)
		}
		byID[at.TraceID] = data
	}

	rng := rand.New(rand.NewSource(8))
	for round := 0; round < 3; round++ {
		perm := append([]*trace.TraceBundle(nil), corpus.Bundles...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		got, err := analyzer.Analyze(perm)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got.TotalTraces != base.TotalTraces || got.ImpactedTraces != base.ImpactedTraces {
			t.Fatalf("round %d: corpus-level counts changed under permutation", round)
		}
		if !reflect.DeepEqual(got.Impacted, base.Impacted) {
			t.Fatalf("round %d: Step-5 impact table changed under permutation:\n%v\nvs\n%v",
				round, got.Impacted, base.Impacted)
		}
		for _, at := range got.Traces {
			data, err := json.Marshal(at)
			if err != nil {
				t.Fatal(err)
			}
			want, ok := byID[at.TraceID]
			if !ok {
				t.Fatalf("round %d: trace %s not in base report", round, at.TraceID)
			}
			if string(data) != string(want) {
				t.Fatalf("round %d: trace %s analysis changed under corpus permutation", round, at.TraceID)
			}
		}
	}
}

// TestMetamorphicPowerScalingCovariance: multiplying every Step-1 power
// estimate by k > 0 scales the un-normalized quantities (event powers,
// normalization bases) by k, but Step 3's normalization divides k back
// out — so ranks, normalized powers, amplitudes, fences, detected
// manifestation points and the Step-5 table must all be unchanged (up
// to float round-off for the real-valued vectors, exactly for the
// discrete ones).
func TestMetamorphicPowerScalingCovariance(t *testing.T) {
	corpus := multiDeviceCorpus(t, 67)
	analyzer, err := NewAnalyzer(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []float64{2.5, 0.125} {
		base := stepOneAllOrFatal(t, analyzer, corpus.Bundles)
		scaled := make([]*AnalyzedTrace, len(base))
		for i, at := range base {
			// cloneStepOne shares Events with base; scale a copy.
			c := at.cloneStepOne()
			c.Events = append([]EventPower(nil), at.Events...)
			for j := range c.Events {
				c.Events[j].PowerMW *= k
			}
			scaled[i] = c
		}
		// finish mutates its traces, so give the baseline its own clones.
		baseRun := make([]*AnalyzedTrace, len(base))
		for i, at := range base {
			baseRun[i] = at.cloneStepOne()
		}
		want := finishFromStepOne(t, analyzer, corpus.Bundles, baseRun)
		got := finishFromStepOne(t, analyzer, corpus.Bundles, scaled)

		if !reflect.DeepEqual(got.Impacted, want.Impacted) {
			t.Fatalf("k=%v: Step-5 impact table changed under uniform power scaling", k)
		}
		if got.ImpactedTraces != want.ImpactedTraces {
			t.Fatalf("k=%v: impacted-trace count changed under scaling", k)
		}
		for i := range want.Traces {
			w, g := want.Traces[i], got.Traces[i]
			if !reflect.DeepEqual(g.Manifestations, w.Manifestations) {
				t.Fatalf("k=%v: trace %s manifestation points moved: %v vs %v",
					k, w.TraceID, g.Manifestations, w.Manifestations)
			}
			if !reflect.DeepEqual(g.WindowKeys, w.WindowKeys) {
				t.Fatalf("k=%v: trace %s window keys changed", k, w.TraceID)
			}
			if !reflect.DeepEqual(g.Rank, w.Rank) {
				t.Fatalf("k=%v: trace %s ranks changed (ranking is scale-free)", k, w.TraceID)
			}
			for j := range w.NormPower {
				if !closeRel(g.NormPower[j], w.NormPower[j], 1e-9) {
					t.Fatalf("k=%v: trace %s normalized power %d: %v vs %v",
						k, w.TraceID, j, g.NormPower[j], w.NormPower[j])
				}
			}
			for j := range w.Amplitude {
				if !closeRel(g.Amplitude[j], w.Amplitude[j], 1e-9) {
					t.Fatalf("k=%v: trace %s amplitude %d: %v vs %v",
						k, w.TraceID, j, g.Amplitude[j], w.Amplitude[j])
				}
			}
			if !closeRel(g.Fence, w.Fence, 1e-9) {
				t.Fatalf("k=%v: trace %s fence: %v vs %v", k, w.TraceID, g.Fence, w.Fence)
			}
			// The un-normalized side of the covariance: event powers
			// scale by exactly k.
			for j := range w.Events {
				if !closeRel(g.Events[j].PowerMW, k*w.Events[j].PowerMW, 1e-12) {
					t.Fatalf("k=%v: trace %s event %d power %v, want %v",
						k, w.TraceID, j, g.Events[j].PowerMW, k*w.Events[j].PowerMW)
				}
			}
		}
	}
}

// closeRel compares floats to a relative tolerance (absolute near 0).
func closeRel(a, b, tol float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	if m < 1 {
		return d <= tol
	}
	return d <= tol*m
}

// TestMetamorphicDuplicateBundleIdempotency: under content-key dedup,
// offering the same bundle any number of times is indistinguishable
// from offering it once.
func TestMetamorphicDuplicateBundleIdempotency(t *testing.T) {
	corpus := multiDeviceCorpus(t, 71)
	inc, err := NewIncrementalAnalyzer(DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range corpus.Bundles {
		if _, added := inc.Add(b); !added {
			t.Fatal("fresh bundle deduplicated")
		}
	}
	once, err := inc.Report()
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(once)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3*len(corpus.Bundles); i++ {
		b := corpus.Bundles[rng.Intn(len(corpus.Bundles))]
		if _, added := inc.Add(b); added {
			t.Fatal("duplicate bundle admitted to the corpus")
		}
	}
	if inc.Len() != len(corpus.Bundles) {
		t.Fatalf("corpus grew to %d under duplicate adds, want %d", inc.Len(), len(corpus.Bundles))
	}
	again, err := inc.Report()
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(again)
	if string(gotJSON) != string(wantJSON) {
		t.Fatal("report changed after duplicate adds")
	}
}

// TestMetamorphicInterleavedMutationInvariance: the incremental
// engine's report is a pure function of the final ordered corpus — any
// interleaving of adds, removes, refreshes and intermediate reports
// that ends at the same corpus must produce a byte-identical report,
// and (history-independence of the sorted-column summaries) the same summary
// key/value/node counts.
func TestMetamorphicInterleavedMutationInvariance(t *testing.T) {
	pool := multiDeviceCorpus(t, 79).Bundles
	target := pool[:8] // the final corpus, in this insertion order
	decoys := pool[8:]

	// Reference: a fresh analyzer fed only the final corpus.
	ref, err := NewIncrementalAnalyzer(DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range target {
		ref.Add(b)
	}
	refReport, err := ref.Report()
	if err != nil {
		t.Fatal(err)
	}
	refJSON, _ := json.Marshal(refReport)
	refStats := ref.SummaryStats()

	for schedule := 0; schedule < 3; schedule++ {
		rng := rand.New(rand.NewSource(300 + int64(schedule)))
		inc, err := NewIncrementalAnalyzer(DefaultConfig(), 0)
		if err != nil {
			t.Fatal(err)
		}
		decoyKey := make(map[int]string) // decoy index -> key while present
		churnDecoys := func() {
			for n := rng.Intn(3); n > 0; n-- {
				i := rng.Intn(len(decoys))
				if key, ok := decoyKey[i]; ok {
					if !inc.Remove(key) {
						t.Fatalf("schedule %d: decoy %d vanished", schedule, i)
					}
					delete(decoyKey, i)
				} else {
					key, _ := inc.Add(decoys[i])
					decoyKey[i] = key
				}
				if rng.Intn(2) == 0 {
					inc.Refresh()
				}
			}
		}
		for _, b := range target {
			churnDecoys()
			key, added := inc.Add(b)
			if !added {
				t.Fatalf("schedule %d: target bundle deduplicated", schedule)
			}
			// Thrash the newest member: remove + re-add keeps it at the
			// end of the insertion order, via either the pending-queue
			// cancellation path or (with Refresh between) the full
			// apply/retract path.
			if rng.Intn(2) == 0 {
				if rng.Intn(2) == 0 {
					inc.Refresh()
				}
				inc.Remove(key)
				if rng.Intn(2) == 0 {
					inc.Refresh()
				}
				inc.Add(b)
			}
			// Intermediate reports force summary application at random
			// corpus prefixes.
			if rng.Intn(3) == 0 {
				if _, err := inc.Report(); err != nil {
					t.Fatalf("schedule %d: intermediate report: %v", schedule, err)
				}
			}
		}
		for i, key := range decoyKey {
			if !inc.Remove(key) {
				t.Fatalf("schedule %d: decoy %d vanished at drain", schedule, i)
			}
		}
		if rng.Intn(2) == 0 {
			inc.Refresh()
		}
		got, err := inc.Report()
		if err != nil {
			t.Fatalf("schedule %d: final report: %v", schedule, err)
		}
		gotJSON, _ := json.Marshal(got)
		if string(gotJSON) != string(refJSON) {
			t.Fatalf("schedule %d: report depends on mutation history, not just the final corpus", schedule)
		}
		st := inc.SummaryStats()
		if st.Keys != refStats.Keys || st.Values != refStats.Values || st.Nodes != refStats.Nodes {
			t.Fatalf("schedule %d: summary state diverged from fresh build: got keys=%d values=%d nodes=%d, want keys=%d values=%d nodes=%d",
				schedule, st.Keys, st.Values, st.Nodes, refStats.Keys, refStats.Values, refStats.Nodes)
		}
	}
}

// TestMetamorphicAddRemoveThrash: adversarially adding and removing the
// same bundle 1000 times must return the summaries to their exact
// initial state — same key/value/node counts (no leak in the summary
// columns) and a byte-identical report.
func TestMetamorphicAddRemoveThrash(t *testing.T) {
	pool := multiDeviceCorpus(t, 83).Bundles
	base, extra := pool[:len(pool)-1], pool[len(pool)-1]
	inc, err := NewIncrementalAnalyzer(DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range base {
		inc.Add(b)
	}
	inc.Refresh()
	st0 := inc.SummaryStats()
	refReport, err := inc.Report()
	if err != nil {
		t.Fatal(err)
	}
	refJSON, _ := json.Marshal(refReport)

	// Applied thrash: every cycle round-trips the summaries through a
	// real insert + retract.
	for cycle := 0; cycle < 1000; cycle++ {
		key, added := inc.Add(extra)
		if !added {
			t.Fatalf("cycle %d: thrash bundle deduplicated", cycle)
		}
		inc.Refresh()
		if !inc.Remove(key) {
			t.Fatalf("cycle %d: thrash bundle missing at remove", cycle)
		}
		inc.Refresh()
	}
	// Queued thrash: without a Refresh between them, add+remove cancel
	// in the pending queue and never touch the summaries.
	for cycle := 0; cycle < 1000; cycle++ {
		inc.Add(extra)
		inc.Remove(bundleKey(extra))
	}
	if st := inc.SummaryStats(); st.PendingMutations != 0 {
		t.Fatalf("canceled add/remove pairs left %d pending mutations", st.PendingMutations)
	}

	if inc.Len() != len(base) {
		t.Fatalf("thrash changed corpus size: %d, want %d", inc.Len(), len(base))
	}
	st1 := inc.SummaryStats()
	if st1.Keys != st0.Keys || st1.Values != st0.Values || st1.Nodes != st0.Nodes {
		t.Fatalf("thrash leaked summary state: keys %d -> %d, values %d -> %d, nodes %d -> %d",
			st0.Keys, st1.Keys, st0.Values, st1.Values, st0.Nodes, st1.Nodes)
	}
	got, err := inc.Report()
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(got)
	if string(gotJSON) != string(refJSON) {
		t.Fatal("report changed after add/remove thrash")
	}
}

// TestMetamorphicEdgeCorpora covers the Steps 2–4 degenerate shapes:
// an empty corpus, a single-trace corpus, and traces with zero or one
// event instance (too short for amplitude/fence computation).
func TestMetamorphicEdgeCorpora(t *testing.T) {
	analyzer, err := NewAnalyzer(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	t.Run("empty", func(t *testing.T) {
		if _, err := analyzer.Analyze(nil); !errors.Is(err, ErrNoTraces) {
			t.Fatalf("got %v, want ErrNoTraces", err)
		}
		inc, err := NewIncrementalAnalyzer(DefaultConfig(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := inc.Report(); !errors.Is(err, ErrNoTraces) {
			t.Fatalf("incremental: got %v, want ErrNoTraces", err)
		}
	})

	t.Run("single-trace", func(t *testing.T) {
		corpus := multiDeviceCorpus(t, 73)
		report, err := analyzer.Analyze(corpus.Bundles[:1])
		if err != nil {
			t.Fatal(err)
		}
		if report.TotalTraces != 1 || len(report.Traces) != 1 {
			t.Fatalf("single-trace corpus produced %d traces", report.TotalTraces)
		}
		at := report.Traces[0]
		if len(at.Rank) != len(at.Events) || len(at.NormPower) != len(at.Events) {
			t.Fatal("per-event vectors not aligned with events")
		}
	})

	t.Run("tiny-traces", func(t *testing.T) {
		key := trace.EventKey{Class: "Lapp/Tiny", Callback: "onResume"}
		mk := func(traceID string, events int) *trace.TraceBundle {
			et := trace.EventTrace{AppID: "tinyapp", UserID: "u-" + traceID, TraceID: traceID, Device: "nexus6"}
			for e := 0; e < events; e++ {
				base := int64(e * 1000)
				et.Records = append(et.Records,
					trace.Record{TimestampMS: base, Dir: trace.Enter, Key: key},
					trace.Record{TimestampMS: base + 500, Dir: trace.Exit, Key: key},
				)
			}
			ut := trace.UtilizationTrace{AppID: "tinyapp", PeriodMS: 500}
			span := int64(events) * 1000
			if span == 0 {
				span = 1000
			}
			for ts := int64(0); ts <= span; ts += 500 {
				var u trace.UtilizationVector
				u.Set(trace.CPU, 0.3)
				ut.Samples = append(ut.Samples, trace.UtilizationSample{TimestampMS: ts, Util: u})
			}
			return &trace.TraceBundle{Event: et, Util: ut}
		}
		corpus := []*trace.TraceBundle{mk("t0", 0), mk("t1", 1), mk("t2", 2)}
		report, err := analyzer.Analyze(corpus)
		if err != nil {
			t.Fatalf("tiny corpus must analyze cleanly: %v", err)
		}
		if report.TotalTraces != 3 {
			t.Fatalf("analyzed %d traces, want 3", report.TotalTraces)
		}
		for _, at := range report.Traces[:2] {
			if len(at.Manifestations) != 0 {
				t.Fatalf("trace %s too short for detection reported manifestations %v", at.TraceID, at.Manifestations)
			}
		}
		// Incremental parity holds on degenerate shapes too.
		inc, err := NewIncrementalAnalyzer(DefaultConfig(), 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range corpus {
			inc.Add(b)
		}
		got, err := inc.Report()
		if err != nil {
			t.Fatal(err)
		}
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(report)
		if string(gj) != string(wj) {
			t.Fatal("incremental diverged from batch on tiny traces")
		}
	})
}
