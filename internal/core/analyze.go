package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/trace"
)

// Analysis-layer metrics on the process registry: how many diagnoses
// ran, how many traces they covered, and — live, not just post-hoc in
// report files — how many traces the most recent run skipped.
var (
	mAnalyses       = obs.Default.Counter("core_analyses_total", "completed core.Analyze runs")
	mTracesAnalyzed = obs.Default.Counter("core_traces_analyzed_total", "traces that passed Step 1 across all analyses")
	mTracesSkipped  = obs.Default.Counter("core_traces_skipped_total", "traces excluded under SkipInvalidTraces across all analyses")
	gSkippedLast    = obs.Default.Gauge("core_skipped_traces", "traces skipped by the most recent analysis")
)

// EventPower is one event instance with its Step-1 power estimate, scaled
// to the reference device.
type EventPower struct {
	Instance trace.Instance `json:"instance"`
	PowerMW  float64        `json:"powerMilliwatts"`
}

// AnalyzedTrace carries one trace through all five steps; the
// intermediate vectors are retained because the paper's diagnosis figures
// (7a/7b/7c, 9, 12, 15) plot exactly them.
type AnalyzedTrace struct {
	TraceID string `json:"traceId"`
	UserID  string `json:"userId"`
	Device  string `json:"device"`

	// Events in chronological order with raw scaled power (Step 1).
	Events []EventPower `json:"events"`
	// Rank[i] is the cross-trace rank of Events[i] among instances of
	// the same event key (Step 2).
	Rank []float64 `json:"rank"`
	// NormPower[i] is Events[i].PowerMW normalized to the event's base
	// power (Step 3).
	NormPower []float64 `json:"normPower"`
	// Amplitude[i] is the variation amplitude of Events[i] (Step 4).
	Amplitude []float64 `json:"amplitude"`
	// Fence is the Step-4 upper outer fence for this trace.
	Fence float64 `json:"fence"`
	// Manifestations are indices into Events detected as manifestation
	// points (Step 4).
	Manifestations []int `json:"manifestations"`
	// WindowKeys are the distinct event keys inside the manifestation
	// windows of this trace (Step 5 input).
	WindowKeys []trace.EventKey `json:"windowKeys"`

	// keyIDs[i] is Events[i].Instance.Key interned in the owning
	// analyzer's key table: the dense-ID column Steps 2–5 index flat
	// slices with instead of hashing EventKey structs. windowIDs mirrors
	// WindowKeys the same way. Both are derivable from the exported
	// fields, so they stay out of the JSON encoding and are rebuilt on
	// demand (ensureKeyIDs) for traces that arrive without them.
	keyIDs    []uint32
	windowIDs []uint32
}

// Impact is one reported event with the fraction of traces it impacted
// (Step 5 output).
type Impact struct {
	Key     trace.EventKey `json:"key"`
	Traces  int            `json:"traces"`
	Percent float64        `json:"percent"`
}

// SkippedTrace records one trace excluded from analysis under
// Config.SkipInvalidTraces.
type SkippedTrace struct {
	// Index is the trace's position in the submitted corpus.
	Index int `json:"index"`
	// TraceID identifies the trace when its envelope was readable.
	TraceID string `json:"traceId,omitempty"`
	// Reason is the Step-1 error that disqualified the trace.
	Reason string `json:"reason"`
}

// Report is the complete diagnosis for one app's trace corpus. A report
// from IncrementalAnalyzer is read-only: its traces are shared with the
// analyzer and with the reports before and after it that did not
// re-analyze them. Copy before modifying anything reachable from it.
type Report struct {
	AppID       string           `json:"appId"`
	TotalTraces int              `json:"totalTraces"`
	Traces      []*AnalyzedTrace `json:"traces"`
	// Impacted lists every event seen in any manifestation window,
	// sorted by the Step-5 criterion.
	Impacted []Impact `json:"impacted"`
	// ImpactedTraces is the number of traces with at least one detected
	// manifestation point.
	ImpactedTraces int `json:"impactedTraces"`
	// Skipped lists traces excluded under Config.SkipInvalidTraces.
	// TotalTraces counts only the analyzed traces.
	Skipped []SkippedTrace `json:"skipped,omitempty"`

	// Stages is the per-step wall/CPU breakdown of this analysis,
	// sourced from spans (energydx -stats renders it). Excluded from
	// JSON so golden reports and cross-worker byte-identity are
	// untouched by timing jitter.
	Stages []StageTiming `json:"-"`
}

// StageTiming is one pipeline stage's latency contribution. Step 0 is
// the whole-analysis total.
type StageTiming struct {
	Step  int
	Name  string
	Wall  time.Duration
	CPU   time.Duration
	Items int
}

// TopEvents returns the first n reported events (all if n <= 0 or beyond
// the list).
func (r *Report) TopEvents(n int) []Impact {
	if n <= 0 || n > len(r.Impacted) {
		n = len(r.Impacted)
	}
	out := make([]Impact, n)
	copy(out, r.Impacted[:n])
	return out
}

// TopKeys returns the event keys of the first n reported events.
func (r *Report) TopKeys(n int) []trace.EventKey {
	top := r.TopEvents(n)
	keys := make([]trace.EventKey, len(top))
	for i, im := range top {
		keys[i] = im.Key
	}
	return keys
}

// Analyzer runs the 5-step manifestation analysis.
//
// Memory model: every event key is interned into a per-analyzer key
// table the first time Step 1 sees it, and all cross-trace state in
// Steps 2–5 is flat slices indexed by the resulting dense uint32 IDs.
// Transient working memory (power model + attribution index, pairing
// buffers, sort/rank scratch, the grouped Step-2 columns) comes from
// per-analyzer sync.Pools, so steady-state analysis allocates only the
// vectors that outlive the call — the report itself. The pools are
// per-analyzer, not package-global, because pairing buffers memoize
// interned IDs that are meaningless under another analyzer's table.
type Analyzer struct {
	cfg  Config
	ref  device.Profile
	keys *trace.Interner

	s1  sync.Pool // *step1Scratch
	wrk sync.Pool // *workerScratch
	fin sync.Pool // *finishScratch
}

// NewAnalyzer validates the configuration and builds an analyzer.
func NewAnalyzer(cfg Config) (*Analyzer, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ref, err := cfg.Devices.Lookup(cfg.ReferenceDevice)
	if err != nil {
		return nil, err
	}
	a := &Analyzer{cfg: cfg, ref: ref, keys: trace.NewInterner()}
	a.s1.New = func() any { return &step1Scratch{pair: trace.NewPairBuffer(a.keys)} }
	a.wrk.New = func() any { return &workerScratch{} }
	a.fin.New = func() any { return &finishScratch{} }
	return a, nil
}

// ensureKeyIDs fills the trace's interned-key-ID column when absent.
// Traces produced by estimateEvents arrive with it already populated,
// so on the pipeline path this is a length check.
func (a *Analyzer) ensureKeyIDs(at *AnalyzedTrace) {
	if len(at.keyIDs) == len(at.Events) {
		return
	}
	at.keyIDs = make([]uint32, len(at.Events))
	for i := range at.Events {
		at.keyIDs[i] = a.keys.ID(at.Events[i].Instance.Key)
	}
}

// ErrNoTraces is returned when Analyze receives an empty corpus.
var ErrNoTraces = errors.New("core: no traces to analyze")

// Analyze runs all five steps over a corpus of trace bundles collected
// from different users and returns the diagnosis report. Each step is
// timed against the monotonic clock (Report.Stages); a caller-provided
// Config.Tracer additionally receives one span per worker task.
func (a *Analyzer) Analyze(bundles []*trace.TraceBundle) (*Report, error) {
	if len(bundles) == 0 {
		return nil, ErrNoTraces
	}
	tr, detail := a.cfg.Tracer, a.cfg.Tracer != nil
	if tr == nil {
		tr = obs.NewTracer()
	}
	root := tr.Start("analyze")

	// Step 1: power estimation of events, per trace (parallelizable:
	// traces are independent).
	s1 := root.Child("step1.estimate")
	traces, skipped, err := a.stepOneAll(bundles, s1, detail)
	if err != nil {
		return nil, err
	}
	rec1 := s1.End()
	return a.finish(bundles, traces, skipped, root, rec1)
}

// finish runs Steps 2–5 over already-estimated traces and assembles the
// report. It is the batch path's back half (Analyze computes Step 1
// fresh and hands the traces here); the metamorphic tests also call it
// on hand-built traces. IncrementalAnalyzer does not: its Steps 2–5 run
// off the per-key summaries and are differentially tested against this.
// bundles is the submitted corpus in order (including invalid entries),
// used for the AppID scan and the Step-1 item count; traces and skipped
// partition it.
func (a *Analyzer) finish(bundles []*trace.TraceBundle, traces []*AnalyzedTrace, skipped []SkippedTrace, root *obs.Span, rec1 obs.SpanRecord) (*Report, error) {
	detail := a.cfg.Tracer != nil
	if len(traces) == 0 {
		return nil, fmt.Errorf("core: all %d traces invalid (first: %s)", len(bundles), skipped[0].Reason)
	}
	report := &Report{TotalTraces: len(traces), Traces: traces, Skipped: skipped}
	for _, b := range bundles {
		if b.Event.AppID != "" {
			report.AppID = b.Event.AppID
			break
		}
	}

	// Corpus-wide scratch (grouped Step-2 columns, per-ID counts and
	// bases) lives for the whole finish: rankAndBase fills it, normalize
	// reads the bases out of it, rankImpacts reuses its count table.
	fin := a.fin.Get().(*finishScratch)
	defer a.fin.Put(fin)

	// Step 2: rank all instances of the same event across all traces.
	s2 := root.Child("step2.rank")
	basePower, err := a.rankAndBase(report.Traces, fin)
	rec2 := s2.End()
	if err != nil {
		return nil, err
	}

	// Step 3 fans out per trace: normalize each instance's power to its
	// event's base. Each trace only touches its own vectors, so any
	// worker count produces the same report.
	s3 := root.Child("step3.normalize")
	_ = parallel.ForEach(a.cfg.Parallelism, len(report.Traces), func(i int) error {
		if detail {
			sp := s3.Child("step3.trace")
			defer sp.End()
		}
		a.normalize(report.Traces[i], basePower)
		return nil
	})
	rec3 := s3.End()

	// Step 4 fans out per trace: attribute variation amplitude, detect
	// manifestation points, collect window keys.
	s4 := root.Child("step4.detect")
	err = parallel.ForEach(a.cfg.Parallelism, len(report.Traces), func(i int) error {
		if detail {
			sp := s4.Child("step4.trace")
			defer sp.End()
		}
		at := report.Traces[i]
		if err := a.detect(at); err != nil {
			return fmt.Errorf("trace %s: %w", at.TraceID, err)
		}
		return nil
	})
	rec4 := s4.End()
	if err != nil {
		return nil, err
	}
	for _, at := range report.Traces {
		if len(at.Manifestations) > 0 {
			report.ImpactedTraces++
		}
	}

	// Step 5: percentage-based sorting of events in the windows.
	s5 := root.Child("step5.impacts")
	a.rankImpacts(report, fin)
	rec5 := s5.End()
	recTotal := root.End()

	n := len(report.Traces)
	report.Stages = []StageTiming{
		{Step: 1, Name: "estimate", Wall: rec1.Wall(), CPU: rec1.CPU(), Items: len(bundles)},
		{Step: 2, Name: "rank", Wall: rec2.Wall(), CPU: rec2.CPU(), Items: n},
		{Step: 3, Name: "normalize", Wall: rec3.Wall(), CPU: rec3.CPU(), Items: n},
		{Step: 4, Name: "detect", Wall: rec4.Wall(), CPU: rec4.CPU(), Items: n},
		{Step: 5, Name: "impacts", Wall: rec5.Wall(), CPU: rec5.CPU(), Items: len(report.Impacted)},
		{Step: 0, Name: "total", Wall: recTotal.Wall(), CPU: recTotal.CPU(), Items: n},
	}
	mAnalyses.Inc()
	mTracesAnalyzed.Add(int64(n))
	mTracesSkipped.Add(int64(len(skipped)))
	gSkippedLast.Set(float64(len(skipped)))
	return report, nil
}

// stepOneAll runs Step 1 across the corpus through the shared pool.
// Each bundle gets its own power model (and its own seeded noise RNG)
// and results land in input order, so the fan-out is deterministic
// under any worker count. Under SkipInvalidTraces a failing bundle is
// demoted to a SkippedTrace entry instead of failing the batch —
// errors are captured per slot so one corrupt trace costs exactly one
// trace.
func (a *Analyzer) stepOneAll(bundles []*trace.TraceBundle, parent *obs.Span, detail bool) ([]*AnalyzedTrace, []SkippedTrace, error) {
	type slot struct {
		at  *AnalyzedTrace
		err error
	}
	slots, err := parallel.Map(a.cfg.Parallelism, len(bundles), func(i int) (slot, error) {
		if detail {
			sp := parent.Child("step1.trace")
			defer sp.End()
		}
		at, err := a.estimateEvents(bundles[i])
		return slot{at: at, err: err}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	traces := make([]*AnalyzedTrace, 0, len(slots))
	var skipped []SkippedTrace
	for i, s := range slots {
		switch {
		case s.err == nil:
			traces = append(traces, s.at)
		case a.cfg.SkipInvalidTraces:
			skipped = append(skipped, SkippedTrace{
				Index:   i,
				TraceID: bundles[i].Event.TraceID,
				Reason:  s.err.Error(),
			})
		default:
			return nil, nil, fmt.Errorf("trace %d (%s): %w", i, bundles[i].Event.TraceID, s.err)
		}
	}
	return traces, skipped, nil
}

// StepOne runs only Step 1 (event power estimation with device scaling)
// on one bundle. The CheckAll baseline of §IV-D is defined as "performs
// Step 1 of EnergyDx" and then reports every transition point, so it
// builds on this entry point.
func (a *Analyzer) StepOne(b *trace.TraceBundle) (*AnalyzedTrace, error) {
	return a.estimateEvents(b)
}

// estimateEvents implements Step 1 for one bundle: estimate the app's
// power from utilization with the device's model, scale to the reference
// device, and attribute mean power to each paired event instance. All
// working state — the model, the prefix-sum attribution index (answering
// each instance's mean-power query in O(log samples)), and the pairing
// buffer — is pooled scratch rebuilt in place, so the only allocations
// that survive the call are the returned trace's own vectors.
func (a *Analyzer) estimateEvents(b *trace.TraceBundle) (*AnalyzedTrace, error) {
	devName := b.Event.Device
	if devName == "" {
		devName = a.cfg.ReferenceDevice
	}
	profile, err := a.cfg.Devices.Lookup(devName)
	if err != nil {
		return nil, fmt.Errorf("step 1: %w", err)
	}
	sc := a.s1.Get().(*step1Scratch)
	defer a.s1.Put(sc)
	sc.model.Reset(profile, a.cfg.EstimationNoiseFrac, a.cfg.NoiseSeed)
	factor := device.ScaleFactor(&profile, &a.ref)
	if err := sc.index.BuildScaled(&sc.model, &b.Util, factor); err != nil {
		return nil, fmt.Errorf("step 1: %w", err)
	}

	instances, ids, err := b.Event.PairInto(sc.pair)
	if err != nil {
		return nil, fmt.Errorf("step 1: %w", err)
	}
	at := &AnalyzedTrace{
		TraceID: b.Event.TraceID,
		UserID:  b.Event.UserID,
		Device:  devName,
		Events:  make([]EventPower, 0, len(instances)),
		keyIDs:  make([]uint32, 0, len(instances)),
	}
	for i, in := range instances {
		p, ok := sc.index.MeanBetween(in.StartMS, in.EndMS)
		if !ok {
			continue // no power sample anywhere near the instance
		}
		if math.IsNaN(p) || math.IsInf(p, 0) {
			// Step 2 ranks each instance against every instance of its
			// event, which needs a number: a profile that yields NaN or
			// Inf disqualifies the trace here, not the corpus later.
			return nil, fmt.Errorf("step 1: non-finite power estimate for %s", in.Key)
		}
		at.Events = append(at.Events, EventPower{Instance: in, PowerMW: p})
		at.keyIDs = append(at.keyIDs, ids[i])
	}
	return at, nil
}

// rankAndBase implements Step 2 (cross-trace ranking of each event's
// instances) and derives the Step-3 normalization base: the configured
// percentile of each event key's power distribution across all traces.
// Returned bases are indexed by interned key ID and owned by fin.
//
// Layout: a counting pass groups every instance's power into one flat
// column ordered by key ID then (trace, event-index) — the same
// within-key order the map-of-slices assembly produced — with an offset
// table marking each ID's group. The per-key ranking fans out over the
// IDs present in this corpus; every (trace, event-index) slot belongs
// to exactly one key, so concurrent shards write disjoint rank
// elements and the result is identical at any worker count.
func (a *Analyzer) rankAndBase(traces []*AnalyzedTrace, fin *finishScratch) ([]float64, error) {
	total := 0
	for _, at := range traces {
		a.ensureKeyIDs(at)
		at.Rank = make([]float64, len(at.Events))
		total += len(at.Events)
	}
	K := a.keys.Len()
	fin.counts = growIntsZero(fin.counts, K)
	for _, at := range traces {
		for _, id := range at.keyIDs {
			fin.counts[id]++
		}
	}
	// The interner is append-only across the analyzer's lifetime, so
	// IDs from earlier corpora may have no instances here; they are
	// simply absent from the present list.
	fin.starts = growInts(fin.starts, K+1)
	fin.present = fin.present[:0]
	sum := 0
	for id := 0; id < K; id++ {
		fin.starts[id] = sum
		sum += fin.counts[id]
		if fin.counts[id] > 0 {
			fin.present = append(fin.present, uint32(id))
		}
	}
	fin.starts[K] = sum
	fin.powers = growFloats(fin.powers, total)
	fin.ranks = growFloats(fin.ranks, total)
	fin.cursors = growInts(fin.cursors, K)
	copy(fin.cursors, fin.starts[:K])
	for _, at := range traces {
		for i, id := range at.keyIDs {
			fin.powers[fin.cursors[id]] = at.Events[i].PowerMW
			fin.cursors[id]++
		}
	}
	bases := growFloatsZero(fin.bases, K)
	fin.bases = bases
	err := parallel.ForEach(a.cfg.Parallelism, len(fin.present), func(k int) error {
		id := fin.present[k]
		lo, hi := fin.starts[id], fin.starts[id+1]
		powers := fin.powers[lo:hi]
		ws := a.wrk.Get().(*workerScratch)
		defer a.wrk.Put(ws)
		if err := ws.st.Ranks(powers, fin.ranks[lo:hi]); err != nil {
			return fmt.Errorf("step 2: rank %s: %w", a.keys.Key(id), err)
		}
		b, err := ws.st.Percentile(powers, a.cfg.NormBasePercentile)
		if err != nil {
			return fmt.Errorf("step 3: base for %s: %w", a.keys.Key(id), err)
		}
		bases[id] = b
		return nil
	})
	if err != nil {
		return nil, err
	}
	copy(fin.cursors, fin.starts[:K])
	for _, at := range traces {
		for i, id := range at.keyIDs {
			at.Rank[i] = fin.ranks[fin.cursors[id]]
			fin.cursors[id]++
		}
	}
	return bases, nil
}

// normalize implements Step 3: each instance's power divided by its
// event's base power, "eliminating the relative power consumption
// differences among different events but keeping the difference among
// different instances of the same event". base is indexed by interned
// key ID (IDs beyond its length read as 0, i.e. no base).
func (a *Analyzer) normalize(at *AnalyzedTrace, base []float64) {
	a.ensureKeyIDs(at)
	at.NormPower = make([]float64, len(at.Events))
	for i := range at.Events {
		var b float64
		if id := at.keyIDs[i]; int(id) < len(base) {
			b = base[id]
		}
		if b <= 0 {
			// Power estimates include the device base term so this only
			// happens with degenerate inputs; fall back to raw power.
			at.NormPower[i] = at.Events[i].PowerMW
			continue
		}
		at.NormPower[i] = at.Events[i].PowerMW / b
	}
}

// detect implements Step 4: variation-amplitude attribution over monotone
// increasing runs, then IQR outlier detection with the upper outer fence.
func (a *Analyzer) detect(at *AnalyzedTrace) error {
	if a.cfg.SingleStepAmplitude {
		at.Amplitude = SingleStepAmplitudes(at.NormPower)
	} else {
		at.Amplitude = VariationAmplitudes(at.NormPower)
	}
	if len(at.Amplitude) < 2 {
		at.Manifestations = nil
		return nil
	}
	ws := a.wrk.Get().(*workerScratch)
	defer a.wrk.Put(ws)
	fences, err := ws.st.Fences(at.Amplitude, a.cfg.FenceMultiplier)
	if err != nil {
		return fmt.Errorf("step 4: %w", err)
	}
	at.Fence = fences.UpperOuter
	// Allocate fresh rather than reusing at.Manifestations[:0]: when a
	// caller re-analyzes a previously analyzed trace, truncating the old
	// slice would alias (and clobber) backing arrays the caller may
	// still hold.
	at.Manifestations = nil
	for i, v := range at.Amplitude {
		// Only positive amplitudes mark a low-to-high transition (the
		// ABD manifests when power rises, not when it falls back), and
		// the rise must be material (MinAmplitude) so a degenerate
		// near-zero IQR on a flat trace cannot promote jitter.
		if v > fences.UpperOuter && v > 0 && v >= a.cfg.MinAmplitude {
			at.Manifestations = append(at.Manifestations, i)
		}
	}
	at.WindowKeys = a.windowKeys(at, ws)
	return nil
}

// runEpsilon is the minimum relative increase for a step to extend a
// monotone run: without it, sub-percent measurement jitter bridges flat
// plateaus into a later jump and smears one manifestation's amplitude
// across many unrelated events.
const runEpsilon = 0.01

// VariationAmplitudes computes the Step-4 metric for a normalized power
// series: V_i = p_{i+1} - p_i, except that when the series keeps
// increasing from i through i+n, V_i = p_{i+n} - p_i (the paper's
// monotone-run extension for gradually-manifesting ABDs). The last
// element's amplitude is 0. Exported for the ablation benchmarks.
func VariationAmplitudes(norm []float64) []float64 {
	rising := func(a, b float64) bool { return b > a*(1+runEpsilon) }
	v := make([]float64, len(norm))
	for i := 0; i+1 < len(norm); i++ {
		j := i + 1
		for j+1 < len(norm) && rising(norm[j], norm[j+1]) && rising(norm[j-1], norm[j]) {
			j++
		}
		if j > i+1 {
			v[i] = norm[j] - norm[i]
		} else {
			v[i] = norm[i+1] - norm[i]
		}
	}
	return v
}

// SingleStepAmplitudes is the ablation variant of VariationAmplitudes
// without the monotone-run extension: V_i = p_{i+1} - p_i, 0 for the
// last element.
func SingleStepAmplitudes(norm []float64) []float64 {
	v := make([]float64, len(norm))
	for i := 0; i+1 < len(norm); i++ {
		v[i] = norm[i+1] - norm[i]
	}
	return v
}

// windowKeys implements the first half of Step 5: the distinct event keys
// within the manifestation window of each detected point. Dedup runs on
// the interned-ID column against a pooled seen bitmap; the resulting IDs
// are sorted in the keys' lexicographic order, so the materialized
// WindowKeys list is identical to the map-and-sort path it replaced.
// The trace's windowIDs column is refreshed alongside (freshly
// allocated, like Manifestations, so re-analysis cannot clobber arrays
// behind a previously returned report).
func (a *Analyzer) windowKeys(at *AnalyzedTrace, ws *workerScratch) []trace.EventKey {
	a.ensureKeyIDs(at)
	K := a.keys.Len()
	if cap(ws.seen) < K {
		ws.seen = make([]bool, K)
	}
	seen := ws.seen[:K]
	ids := ws.ids[:0]
	for _, m := range at.Manifestations {
		lo := m - a.cfg.WindowEvents
		hi := m + a.cfg.WindowEvents
		if lo < 0 {
			lo = 0
		}
		if hi >= len(at.Events) {
			hi = len(at.Events) - 1
		}
		for i := lo; i <= hi; i++ {
			if id := at.keyIDs[i]; !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
	}
	ws.sortIDs(a.keys, ids)
	keys := make([]trace.EventKey, len(ids))
	at.windowIDs = make([]uint32, len(ids))
	for i, id := range ids {
		keys[i] = a.keys.Key(id)
		at.windowIDs[i] = id
		seen[id] = false
	}
	ws.ids = ids[:0]
	return keys
}

// rankImpacts implements the second half of Step 5: for every event seen
// in any window, the percentage of traces it impacted, sorted by
// closeness to the developer-reported impacted-user percentage (or by
// percentage descending when none was provided). Window membership is
// counted on the interned-ID columns into fin's count table; the
// comparator is a strict total order (distinct impacts have distinct
// keys), so assembling candidates in ID order instead of map order
// yields the same sorted result.
func (a *Analyzer) rankImpacts(report *Report, fin *finishScratch) {
	K := a.keys.Len()
	fin.counts = growIntsZero(fin.counts, K)
	for _, at := range report.Traces {
		for _, id := range at.windowIDs {
			fin.counts[id]++
		}
	}
	report.Impacted = a.impactsFromCounts(fin.counts, report.TotalTraces)
}

// impactsFromCounts materializes and sorts the Step-5 impact table from
// a per-key-ID window-membership count column. It is shared by the
// batch finish (counts filled fresh by rankImpacts) and the incremental
// engine (counts maintained under add/remove), so both paths assemble
// and order impacts through identical code.
func (a *Analyzer) impactsFromCounts(counts []int, totalTraces int) []Impact {
	distinct := 0
	for _, n := range counts {
		if n > 0 {
			distinct++
		}
	}
	impacts := make([]Impact, 0, distinct)
	for id, n := range counts {
		if n <= 0 {
			continue
		}
		impacts = append(impacts, Impact{
			Key:     a.keys.Key(uint32(id)),
			Traces:  n,
			Percent: 100 * float64(n) / float64(totalTraces),
		})
	}
	target := a.cfg.DeveloperImpactPercent
	sort.Slice(impacts, func(x, y int) bool {
		a, b := impacts[x], impacts[y]
		if target > 0 {
			da, db := absFloat(a.Percent-target), absFloat(b.Percent-target)
			if da != db {
				return da < db
			}
		} else if a.Percent != b.Percent {
			return a.Percent > b.Percent
		}
		if a.Key.Class != b.Key.Class {
			return a.Key.Class < b.Key.Class
		}
		return a.Key.Callback < b.Key.Callback
	})
	return impacts
}

func absFloat(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
