package core_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/power"
	"repro/internal/trace"
	"repro/internal/workload"
)

// bundlePool generates a deterministic pool of bundles the mutation
// harness draws from.
func bundlePool(t *testing.T, users int, seed int64) []*trace.TraceBundle {
	t.Helper()
	app, err := apps.K9Mail()
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.DefaultConfig(app, seed)
	cfg.Users = users
	cfg.ImpactedFraction = 0.25
	corpus, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return corpus.Bundles
}

// reportJSON marshals a report; JSON is the byte-identity currency of
// the differential harness (Stages is json:"-", so timing jitter never
// participates).
func reportJSON(t *testing.T, r *core.Report) []byte {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// bodyBytes writes a report body out through WriteTo.
func bodyBytes(t *testing.T, body *core.ReportBody) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := body.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(body.Len()) || buf.Len() != body.Len() {
		t.Fatalf("WriteTo wrote %d bytes (returned %d), Len() is %d", buf.Len(), n, body.Len())
	}
	return buf.Bytes()
}

// encodeReport is core.EncodeReport that fails the test on error.
func encodeReport(t *testing.T, r *core.Report) *core.ReportBody {
	t.Helper()
	body, err := core.EncodeReport(r)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// assertReportJSON checks one ReportJSON result against want, the
// batch oracle's json.Marshal bytes: the body's bytes must equal want,
// and so must json.Marshal of the returned report; the body's digest
// must equal a cold EncodeReport's of that report.
func assertReportJSON(t *testing.T, what string, rep *core.Report, body *core.ReportBody, err error, want []byte) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: ReportJSON: %v", what, err)
	}
	data := bodyBytes(t, body)
	if !bytes.Equal(data, want) {
		i := 0
		for i < len(data) && i < len(want) && data[i] == want[i] {
			i++
		}
		lo := max(i-80, 0)
		t.Fatalf("%s: ReportJSON bytes diverge from json.Marshal of the batch report at byte %d:\nReportJSON: %.200s\nbatch:      %.200s",
			what, i, data[lo:], want[lo:])
	}
	if got := reportJSON(t, rep); !bytes.Equal(got, want) {
		t.Fatalf("%s: json.Marshal of ReportJSON's report differs from the batch report", what)
	}
	if body.Digest != encodeReport(t, rep).Digest {
		t.Fatalf("%s: ReportJSON's digest differs from EncodeReport's for the same report", what)
	}
}

// mirror is the oracle corpus: the exact ordered bundle slice the
// incremental analyzer should be equivalent to batch-analyzing.
type mirror struct {
	keys    []string
	bundles []*trace.TraceBundle
}

func (m *mirror) add(key string, b *trace.TraceBundle) {
	m.keys = append(m.keys, key)
	m.bundles = append(m.bundles, b)
}

func (m *mirror) remove(key string) {
	for i, k := range m.keys {
		if k == key {
			m.keys = append(m.keys[:i:i], m.keys[i+1:]...)
			m.bundles = append(m.bundles[:i:i], m.bundles[i+1:]...)
			return
		}
	}
}

// TestIncrementalMatchesBatch is the differential harness of the
// incremental engine: a seeded random sequence of corpus mutations
// (add, remove, re-add, duplicate add) with, after every mutation, a
// byte-identical comparison between IncrementalAnalyzer.Report and a
// fresh batch Analyzer.Analyze over the mirrored bundle slice. Variants
// cover estimation noise (Step-1 purity under the per-bundle seeded
// RNG) and a cache far smaller than the corpus (eviction must cost
// time, never correctness).
func TestIncrementalMatchesBatch(t *testing.T) {
	variants := []struct {
		name      string
		noise     float64
		cacheCap  int
		mutations int
	}{
		{"no-noise", 0, 0, 120},
		{"paper-noise", power.PaperNoiseFrac, 0, 120},
		{"tiny-cache", 0, 3, 80},
	}
	pool := bundlePool(t, 14, 41)
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.EstimationNoiseFrac = v.noise
			cfg.NoiseSeed = 7
			batch, err := core.NewAnalyzer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			inc, err := core.NewIncrementalAnalyzer(cfg, v.cacheCap)
			if err != nil {
				t.Fatal(err)
			}

			rng := rand.New(rand.NewSource(1000 + int64(len(v.name))))
			var m mirror
			removed := make(map[string]*trace.TraceBundle) // key -> bundle, for re-adds
			next := 0                                      // next unseen pool bundle

			check := func(step int) {
				t.Helper()
				// Alternate which call applies the pending mutations, so
				// both run the refresh that drops stale fragments.
				var got, jsonRep *core.Report
				var gotJSON *core.ReportBody
				var gotErr, jsonErr error
				if step%2 == 0 {
					jsonRep, gotJSON, jsonErr = inc.ReportJSON()
					got, gotErr = inc.Report()
				} else {
					got, gotErr = inc.Report()
					jsonRep, gotJSON, jsonErr = inc.ReportJSON()
				}
				if len(m.bundles) == 0 {
					if !errors.Is(gotErr, core.ErrNoTraces) || !errors.Is(jsonErr, core.ErrNoTraces) {
						t.Fatalf("step %d: empty corpus: got %v and %v, want ErrNoTraces", step, gotErr, jsonErr)
					}
					return
				}
				if gotErr != nil {
					t.Fatalf("step %d: incremental report: %v", step, gotErr)
				}
				want, wantErr := batch.Analyze(m.bundles)
				if wantErr != nil {
					t.Fatalf("step %d: batch analyze: %v", step, wantErr)
				}
				gj, wj := reportJSON(t, got), reportJSON(t, want)
				if !bytes.Equal(gj, wj) {
					t.Fatalf("step %d: incremental report diverged from batch over %d bundles:\nincremental: %.200s\nbatch:       %.200s",
						step, len(m.bundles), gj, wj)
				}
				assertReportJSON(t, fmt.Sprintf("step %d", step), jsonRep, gotJSON, jsonErr, wj)
			}

			for step := 0; step < v.mutations; step++ {
				op := rng.Intn(4)
				switch {
				case op == 0 && next < len(pool): // add an unseen bundle
					b := pool[next]
					next++
					key, added := inc.Add(b)
					if !added {
						t.Fatalf("step %d: fresh bundle %s reported as duplicate", step, key)
					}
					m.add(key, b)
				case op == 1 && len(m.keys) > 0: // remove a random corpus bundle
					key := m.keys[rng.Intn(len(m.keys))]
					removed[key] = nil
					for i, k := range m.keys {
						if k == key {
							removed[key] = m.bundles[i]
							break
						}
					}
					if !inc.Remove(key) {
						t.Fatalf("step %d: remove of present key %s returned false", step, key)
					}
					m.remove(key)
				case op == 2 && len(removed) > 0: // re-add a removed bundle (cache hit)
					var key string
					for k := range removed {
						key = k
						break
					}
					b := removed[key]
					delete(removed, key)
					k2, added := inc.Add(b)
					if k2 != key {
						t.Fatalf("step %d: re-add changed content key: %s -> %s", step, key, k2)
					}
					if !added {
						t.Fatalf("step %d: re-add of absent key %s reported as duplicate", step, key)
					}
					m.add(key, b)
				case op == 3 && len(m.keys) > 0: // duplicate add: must be a no-op
					i := rng.Intn(len(m.bundles))
					before := inc.Len()
					if _, added := inc.Add(m.bundles[i]); added {
						t.Fatalf("step %d: duplicate add of %s was not deduplicated", step, m.keys[i])
					}
					if inc.Len() != before {
						t.Fatalf("step %d: duplicate add changed corpus size %d -> %d", step, before, inc.Len())
					}
				default: // op not applicable in this state; add if possible
					if next < len(pool) {
						b := pool[next]
						next++
						key, _ := inc.Add(b)
						m.add(key, b)
					}
				}
				check(step)
			}
			if inc.Len() != len(m.bundles) {
				t.Fatalf("corpus size diverged: incremental %d, mirror %d", inc.Len(), len(m.bundles))
			}
			st := inc.CacheStats()
			if st.Hits+st.Misses != st.Lookups {
				t.Fatalf("cache stats do not reconcile: hits %d + misses %d != lookups %d", st.Hits, st.Misses, st.Lookups)
			}
			if v.cacheCap <= 0 && st.Evictions != 0 {
				t.Fatalf("unbounded-enough cache evicted %d entries", st.Evictions)
			}
			if v.cacheCap == 3 && st.Evictions == 0 {
				t.Fatal("tiny cache variant never evicted; eviction-then-recompute path untested")
			}
		})
	}
}

// TestIncrementalSkipInvalidMatchesBatch extends the differential
// check to the graceful-degradation path: corrupt bundles under
// SkipInvalidTraces must produce identical Skipped entries (including
// corpus indices) from both engines, and the negative cache must not
// distort later reports.
func TestIncrementalSkipInvalidMatchesBatch(t *testing.T) {
	pool := bundlePool(t, 8, 43)
	// Corrupt two bundles in ways Step 1 rejects: an unknown device and
	// an invalid utilization period.
	bad1 := *pool[2]
	bad1.Key = ""
	bad1.Event.Device = "no-such-device"
	bad2 := *pool[5]
	bad2.Key = ""
	bad2.Util.PeriodMS = -1
	corpus := []*trace.TraceBundle{pool[0], &bad1, pool[1], &bad2, pool[3]}

	cfg := core.DefaultConfig()
	cfg.SkipInvalidTraces = true
	batch, err := core.NewAnalyzer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := core.NewIncrementalAnalyzer(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range corpus {
		inc.Add(b)
	}
	for round := 0; round < 2; round++ { // round 2 serves Step-1 failures from the negative cache
		got, err := inc.Report()
		if err != nil {
			t.Fatalf("round %d: incremental: %v", round, err)
		}
		want, err := batch.Analyze(corpus)
		if err != nil {
			t.Fatalf("round %d: batch: %v", round, err)
		}
		wj := reportJSON(t, want)
		if gj := reportJSON(t, got); !bytes.Equal(gj, wj) {
			t.Fatalf("round %d: lenient incremental report diverged from batch", round)
		}
		if len(got.Skipped) != 2 {
			t.Fatalf("round %d: skipped %d traces, want 2", round, len(got.Skipped))
		}
		rep, data, err := inc.ReportJSON()
		assertReportJSON(t, fmt.Sprintf("round %d", round), rep, data, err, wj)
	}
	// A retraction after the bytes are cached: the skipped indices and
	// the surviving fragments must still assemble to the batch bytes.
	key, _ := inc.Add(pool[3]) // already present: a no-op returning its key
	inc.Remove(key)
	rest := []*trace.TraceBundle{pool[0], &bad1, pool[1], &bad2}
	want, err := batch.Analyze(rest)
	if err != nil {
		t.Fatalf("batch after remove: %v", err)
	}
	rep, data, err := inc.ReportJSON()
	assertReportJSON(t, "after remove", rep, data, err, reportJSON(t, want))
	// Strict mode: both engines must fail on the same bundle.
	cfg.SkipInvalidTraces = false
	strictBatch, err := core.NewAnalyzer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	strictInc, err := core.NewIncrementalAnalyzer(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range corpus {
		strictInc.Add(b)
	}
	_, batchErr := strictBatch.Analyze(corpus)
	_, incErr := strictInc.Report()
	if batchErr == nil || incErr == nil {
		t.Fatalf("strict mode did not fail: batch %v, incremental %v", batchErr, incErr)
	}
	if batchErr.Error() != incErr.Error() {
		t.Fatalf("strict errors diverge:\nbatch:       %v\nincremental: %v", batchErr, incErr)
	}
	rep, data, jsonErr := strictInc.ReportJSON()
	if rep != nil || data != nil || jsonErr == nil || jsonErr.Error() != batchErr.Error() {
		t.Fatalf("strict ReportJSON = (%v, %v, %v), want (nil, nil, %v)", rep, data, jsonErr, batchErr)
	}
}

// TestReportJSONNonFiniteMatchesMarshal covers non-finite Step-1
// estimates: a device profile with an infinite idle floor makes every
// power estimated on it non-finite, which Step 1 rejects. Under
// SkipInvalidTraces the trace is skipped like any other Step-1 failure,
// and ReportJSON serves the batch report's bytes and digest before and
// after the trace leaves the corpus. In strict mode batch and
// incremental analysis fail with the same Step-1 error.
func TestReportJSONNonFiniteMatchesMarshal(t *testing.T) {
	pool := bundlePool(t, 6, 61)
	devs := device.NewRegistry()
	devs.Register(device.Profile{Name: "inf-floor", BaseMW: math.Inf(1)})
	bad := *pool[0]
	bad.Key = ""
	bad.Event.TraceID += "-inf"
	bad.Event.Device = "inf-floor"
	withBad := append(append([]*trace.TraceBundle{}, pool...), &bad)
	const reason = "step 1: non-finite power estimate for "

	cfg := core.DefaultConfig()
	cfg.Devices = devs
	cfg.SkipInvalidTraces = true
	batch, err := core.NewAnalyzer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := core.NewIncrementalAnalyzer(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range pool {
		inc.Add(b)
	}
	if _, _, err := inc.ReportJSON(); err != nil { // warm every fragment
		t.Fatal(err)
	}
	badKey, _ := inc.Add(&bad)

	for _, phase := range []struct {
		name   string
		corpus []*trace.TraceBundle
	}{{"non-finite trace in", withBad}, {"non-finite trace out", pool}} {
		want, err := batch.Analyze(phase.corpus)
		if err != nil {
			t.Fatalf("%s: batch: %v", phase.name, err)
		}
		rep, body, err := inc.ReportJSON()
		assertReportJSON(t, phase.name, rep, body, err, reportJSON(t, want))
		if body.Digest != encodeReport(t, want).Digest {
			t.Fatalf("%s: ReportJSON's digest differs from the batch report's", phase.name)
		}
		if len(phase.corpus) == len(withBad) {
			if len(rep.Skipped) != 1 || rep.Skipped[0].TraceID != bad.Event.TraceID || !strings.HasPrefix(rep.Skipped[0].Reason, reason) {
				t.Fatalf("%s: skipped %+v, want only %s with a %q reason", phase.name, rep.Skipped, bad.Event.TraceID, reason)
			}
			inc.Remove(badKey)
		} else if len(rep.Skipped) != 0 {
			t.Fatalf("%s: skipped %+v, want none", phase.name, rep.Skipped)
		}
	}

	cfg.SkipInvalidTraces = false
	strictBatch, err := core.NewAnalyzer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	strictInc, err := core.NewIncrementalAnalyzer(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range withBad {
		strictInc.Add(b)
	}
	_, batchErr := strictBatch.Analyze(withBad)
	if batchErr == nil || !strings.Contains(batchErr.Error(), reason) {
		t.Fatalf("strict batch error %v, want a %q error", batchErr, reason)
	}
	if _, incErr := strictInc.Report(); incErr == nil || incErr.Error() != batchErr.Error() {
		t.Fatalf("strict errors diverge:\nbatch:       %v\nincremental: %v", batchErr, incErr)
	}
	rep, body, jsonErr := strictInc.ReportJSON()
	if rep != nil || body != nil || jsonErr == nil || jsonErr.Error() != batchErr.Error() {
		t.Fatalf("strict ReportJSON = (%v, %v, %v), want (nil, nil, %v)", rep, body, jsonErr, batchErr)
	}
}

// TestServedReportDetachedFromAnalyzerState pins what a caller holding
// a long-lived report (an online serving handler's client) may rely on.
// The bytes a body writes out and the TopEvents/TopKeys results are the
// caller's own, and the impact table is built per report: mutating any
// of them does not change what the analyzer serves next. The per-trace
// vectors are shared with the analyzer and read-only, so instead of
// writing to them the test holds every report version across
// add/remove/re-add rounds that re-rank and re-detect traces, and checks
// that each held version still marshals to exactly the bytes ReportJSON
// served for it, and that each held body still writes them: the analyzer
// never writes a trace or a fragment a report holds.
func TestServedReportDetachedFromAnalyzerState(t *testing.T) {
	pool := bundlePool(t, 8, 47)
	base, extra := pool[:6], pool[6:]
	inc, err := core.NewIncrementalAnalyzer(core.DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(base))
	for i, b := range base {
		keys[i], _ = inc.Add(b)
	}
	served, servedBody, err := inc.ReportJSON()
	if err != nil {
		t.Fatal(err)
	}
	servedJSON := bodyBytes(t, servedBody)
	want := reportJSON(t, served) // snapshot before any mutation
	if !bytes.Equal(servedJSON, want) {
		t.Fatal("ReportJSON bytes differ from json.Marshal of its report")
	}
	for i := range servedJSON {
		servedJSON[i] = 'x'
	}

	// Vandalize everything a handler could hand a client as its own.
	if top := served.TopEvents(0); len(top) > 0 {
		top[0].Key.Class = "Lmutated/by/caller"
		top[0].Percent = -1
		top[0].Traces = 1 << 30
	}
	if keys := served.TopKeys(0); len(keys) > 0 {
		keys[0].Callback = "mutated"
	}
	if len(served.Impacted) > 0 {
		served.Impacted[0].Percent = 123456
	}

	again, err := inc.Report()
	if err != nil {
		t.Fatal(err)
	}
	if got := reportJSON(t, again); !bytes.Equal(got, want) {
		t.Fatal("mutating a served report changed the next report: analyzer state was aliased")
	}
	rep, data, err := inc.ReportJSON()
	assertReportJSON(t, "after vandalism", rep, data, err, want)

	// Hold every version across churn that makes traces rank-stale and
	// base-stale.
	type version struct {
		what   string
		report *core.Report
		body   *core.ReportBody
		data   []byte
	}
	var held []version
	var rankDirty, detectDirty int
	hold := func(what string) {
		rep, body, err := inc.ReportJSON()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		held = append(held, version{what, rep, body, bodyBytes(t, body)})
		st := inc.SummaryStats()
		rankDirty += st.RankDirtyTraces
		detectDirty += st.DetectDirtyTraces
	}
	const rounds = 20
	for r := 0; r < rounds; r++ {
		i := r % len(base)
		inc.Remove(keys[i])
		hold(fmt.Sprintf("round %d: remove %d", r, i))
		xk, _ := inc.Add(extra[r%len(extra)])
		hold(fmt.Sprintf("round %d: add extra %d", r, r%len(extra)))
		inc.Add(base[i])
		hold(fmt.Sprintf("round %d: re-add %d", r, i))
		inc.Remove(xk)
		hold(fmt.Sprintf("round %d: remove extra %d", r, r%len(extra)))
	}
	if rankDirty == 0 || detectDirty == 0 {
		t.Fatalf("churn re-ranked %d and re-detected %d traces; the rounds no longer make held traces stale", rankDirty, detectDirty)
	}
	for _, v := range held {
		if got := reportJSON(t, v.report); !bytes.Equal(got, v.data) {
			t.Fatalf("%s: the held report no longer marshals to the bytes served for it: a later refresh wrote a shared trace", v.what)
		}
		if got := bodyBytes(t, v.body); !bytes.Equal(got, v.data) {
			t.Fatalf("%s: the held body no longer writes the bytes served for it: a later refresh wrote a shared fragment", v.what)
		}
	}
}

// TestReportVersionsShareUnchangedTraces pins the O(change) cost of a
// report version: consecutive reports share the *AnalyzedTrace of every
// trace the mutation between them did not re-analyze, and hold a new
// one for every trace it did. A trace is re-ranked exactly when it
// contains an event key of the added or removed trace (that key's power
// multiset changed); a trace with none of them is neither re-ranked nor
// re-detected.
func TestReportVersionsShareUnchangedTraces(t *testing.T) {
	pool := bundlePool(t, 9, 61)
	// relabel copies b with every event class moved under a prefix no
	// corpus key has, so its keys are disjoint from the K9Mail corpus.
	relabel := func(b *trace.TraceBundle) *trace.TraceBundle {
		c := *b
		c.Key = ""
		c.Event.Records = append([]trace.Record(nil), b.Event.Records...)
		for i := range c.Event.Records {
			c.Event.Records[i].Key.Class = "Lrelabeled/" + c.Event.Records[i].Key.Class[1:]
		}
		return &c
	}
	inc, err := core.NewIncrementalAnalyzer(core.DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range pool[:6] {
		inc.Add(b)
	}
	prev, err := inc.Report()
	if err != nil {
		t.Fatal(err)
	}
	prevJSON := reportJSON(t, prev)

	keysOf := func(at *core.AnalyzedTrace) map[trace.EventKey]bool {
		ks := make(map[trace.EventKey]bool)
		for _, ev := range at.Events {
			ks[ev.Instance.Key] = true
		}
		return ks
	}
	overlaps := func(at *core.AnalyzedTrace, touched map[trace.EventKey]bool) bool {
		for _, ev := range at.Events {
			if touched[ev.Instance.Key] {
				return true
			}
		}
		return false
	}
	byID := func(r *core.Report, id string) *core.AnalyzedTrace {
		for _, at := range r.Traces {
			if at.TraceID == id {
				return at
			}
		}
		return nil
	}

	// step applies one mutation of the trace with the given ID and checks
	// pointer sharing between the report before and after it. It returns
	// how many surviving traces were shared and how many re-analyzed; an
	// added trace is re-ranked too but counted in neither.
	step := func(what, id string, mutate func()) (shared, fresh int) {
		t.Helper()
		mutated := byID(prev, id)
		mutate()
		cur, err := inc.Report()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if mutated == nil {
			mutated = byID(cur, id)
		}
		if mutated == nil {
			t.Fatalf("%s: trace %s in neither report", what, id)
		}
		touched := keysOf(mutated)
		added := 0
		for _, at := range cur.Traces {
			old := byID(prev, at.TraceID)
			switch {
			case old == nil:
				added++ // the added trace itself
			case overlaps(at, touched):
				if at == old {
					t.Errorf("%s: re-ranked trace %s is the same *AnalyzedTrace as in the previous report", what, at.TraceID)
				}
				fresh++
			default:
				if at != old {
					t.Errorf("%s: untouched trace %s was copied; want the previous report's pointer", what, at.TraceID)
				}
				shared++
			}
		}
		if st := inc.SummaryStats(); st.RankDirtyTraces != fresh+added {
			t.Errorf("%s: %d traces re-ranked, %d share a key with the mutation and %d were added", what, st.RankDirtyTraces, fresh, added)
		}
		if got := reportJSON(t, prev); !bytes.Equal(got, prevJSON) {
			t.Fatalf("%s: the previous report changed under the mutation", what)
		}
		prev, prevJSON = cur, reportJSON(t, cur)
		return shared, fresh
	}

	disjoint, second := relabel(pool[7]), relabel(pool[8])
	corpusKeys := make(map[trace.EventKey]bool)
	for _, at := range prev.Traces {
		for k := range keysOf(at) {
			corpusKeys[k] = true
		}
	}
	for _, rec := range disjoint.Event.Records {
		if corpusKeys[rec.Key] {
			t.Fatalf("the disjoint bundle shares event key %v with the corpus", rec.Key)
		}
	}
	var dk string
	if shared, fresh := step("add disjoint", disjoint.Event.TraceID, func() { dk, _ = inc.Add(disjoint) }); shared != 6 || fresh != 0 {
		t.Fatalf("adding a disjoint bundle shared %d and re-analyzed %d traces, want 6 and 0", shared, fresh)
	}
	if shared, fresh := step("remove disjoint", disjoint.Event.TraceID, func() { inc.Remove(dk) }); shared != 6 || fresh != 0 {
		t.Fatalf("removing a disjoint bundle shared %d and re-analyzed %d traces, want 6 and 0", shared, fresh)
	}
	// An overlapping bundle re-ranks the traces sharing its keys.
	if _, fresh := step("add overlapping", pool[6].Event.TraceID, func() { inc.Add(pool[6]) }); fresh == 0 {
		t.Fatal("adding a same-app bundle re-analyzed no trace; the case no longer exercises the copy")
	}
	// With relabeled and K9Mail traces in the corpus, one mutation
	// re-ranks some traces and shares the rest.
	inc.Add(disjoint)
	if prev, err = inc.Report(); err != nil {
		t.Fatal(err)
	}
	prevJSON = reportJSON(t, prev)
	if shared, fresh := step("add second disjoint", second.Event.TraceID, func() { inc.Add(second) }); shared != 7 || fresh != 1 {
		t.Fatalf("adding a second relabeled bundle shared %d and re-analyzed %d traces, want 7 and 1", shared, fresh)
	}
}

// TestIncrementalConcurrentUse exercises Add/Remove/Report/CacheStats
// racing from many goroutines; correctness here is "no race, no panic,
// reports internally consistent", pinned under -race in CI.
func TestIncrementalConcurrentUse(t *testing.T) {
	pool := bundlePool(t, 10, 53)
	inc, err := core.NewIncrementalAnalyzer(core.DefaultConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(pool))
	for i, b := range pool {
		keys[i], _ = inc.Add(b)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 15; i++ {
				switch rng.Intn(4) {
				case 0:
					k := keys[rng.Intn(len(keys))]
					inc.Remove(k)
					inc.Add(pool[indexOf(keys, k)])
				case 1:
					if r, err := inc.Report(); err == nil {
						if r.TotalTraces != len(r.Traces) {
							t.Errorf("inconsistent report: TotalTraces %d, traces %d", r.TotalTraces, len(r.Traces))
						}
					}
				case 2:
					if r, body, err := inc.ReportJSON(); err == nil {
						var got bytes.Buffer
						_, _ = body.WriteTo(&got)
						if want, _ := json.Marshal(r); !bytes.Equal(got.Bytes(), want) {
							t.Errorf("ReportJSON bytes differ from json.Marshal of its report under concurrent churn")
						}
					}
				default:
					st := inc.CacheStats()
					if st.Hits+st.Misses != st.Lookups {
						t.Errorf("stats racing apart: %+v", st)
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

func indexOf(keys []string, k string) int {
	for i, key := range keys {
		if key == k {
			return i
		}
	}
	panic(fmt.Sprintf("key %s not in pool", k))
}

// TestTopEventsTopKeysDefensiveCopies pins the defensive-copy contract
// of the report accessors on the plain batch path too: mutating their
// results must not change the report.
func TestTopEventsTopKeysDefensiveCopies(t *testing.T) {
	pool := bundlePool(t, 6, 59)
	analyzer, err := core.NewAnalyzer(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	report, err := analyzer.Analyze(pool)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Impacted) == 0 {
		t.Fatal("corpus produced no impacted events; pick a different seed")
	}
	want := reportJSON(t, report)

	top := report.TopEvents(len(report.Impacted))
	for i := range top {
		top[i].Key = trace.EventKey{Class: "Ljunk", Callback: "junk"}
		top[i].Traces = -1
		top[i].Percent = -1
	}
	keys := report.TopKeys(len(report.Impacted))
	for i := range keys {
		keys[i] = trace.EventKey{Class: "Lmore/junk", Callback: "junk"}
	}
	if got := reportJSON(t, report); !bytes.Equal(got, want) {
		t.Fatal("mutating TopEvents/TopKeys results changed the report")
	}
}
