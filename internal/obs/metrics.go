// Package obs is the observability layer of the EnergyDx backend: a
// zero-external-dependency metrics registry (counters, gauges,
// histograms) exported in Prometheus text and expvar-style JSON, span
// tracing over the monotonic clock, structured-logging construction on
// log/slog, an HTTP debug mux (/metrics, /healthz, /readyz,
// /debug/vars, net/http/pprof), and CPU/heap profiling helpers.
//
// The production north star is a collection tier ingesting traces from
// millions of phones; a diagnosis pipeline is only trustworthy when its
// own measurement path is itself measurable. Every layer of the system
// (core's 5-step analysis, the collect client/server, the parallel
// pool, the fault injector, the power index) registers its hot counters
// on the Default registry at package init, so any binary that links a
// layer exposes that layer's metrics with no further wiring.
//
// All metric operations are lock-free atomics on the hot path; the
// registry lock is only taken to create or enumerate metrics. Snapshots
// (Prometheus text, JSON) read each field atomically but are not a
// consistent cut across metrics — the usual scrape semantics.
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Default is the process-wide registry. Library packages register their
// metrics here at init; binaries expose it through DebugMux.
var Default = NewRegistry()

// DefBuckets is the default histogram bucket layout (seconds), the
// conventional Prometheus latency spread.
var DefBuckets = []float64{.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// metric is one registered instrument.
type metric interface {
	// kind is the Prometheus TYPE string.
	kind() string
	// help is the HELP string.
	help() string
	// writeProm appends the sample lines (no HELP/TYPE header).
	writeProm(w io.Writer, name string)
	// jsonValue is the expvar-style JSON representation.
	jsonValue() any
}

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]metric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]metric)}
}

// validName enforces the Prometheus metric-name charset.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		letter := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !letter && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// mustValidName panics on a name outside the Prometheus charset.
func mustValidName(name string) {
	if !validName(name) {
		panic("obs: invalid metric name " + strconv.Quote(name))
	}
}

// validLabelValue admits printable ASCII without the characters the
// exposition format would have to escape.
func validLabelValue(v string) bool {
	for i := 0; i < len(v); i++ {
		if c := v[i]; c < ' ' || c > '~' || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}

// familyOf strips a series name's label set: the metric family the
// exposition groups it under.
func familyOf(name string) string {
	family, _, _ := strings.Cut(name, "{")
	return family
}

// register installs (or returns the existing) metric under name, which
// the caller has validated. A kind clash is a programming error and
// panics.
func (r *Registry) register(name, help string, fresh func() metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		want := fresh()
		if m.kind() != want.kind() {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s, was %s", name, want.kind(), m.kind()))
		}
		return m
	}
	m := fresh()
	r.metrics[name] = m
	return m
}

// Counter returns the named monotonically increasing counter,
// registering it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	mustValidName(name)
	return r.register(name, help, func() metric { return &Counter{helpText: help} }).(*Counter)
}

// Gauge returns the named gauge (a value that can go up and down),
// registering it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	mustValidName(name)
	return r.register(name, help, func() metric { return &Gauge{helpText: help} }).(*Gauge)
}

// GaugeFunc registers a gauge whose value is read from fn at export
// time (live state like ring sizes or open connections). Re-registering
// the same name replaces the callback, so per-run wiring (e.g. a test's
// server instance) stays simple.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	mustValidName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		gf, ok2 := m.(*gaugeFunc)
		if !ok2 {
			panic(fmt.Sprintf("obs: metric %q re-registered as gaugefunc, was %s", name, m.kind()))
		}
		gf.mu.Lock()
		gf.fn = fn
		gf.mu.Unlock()
		return
	}
	r.metrics[name] = &gaugeFunc{helpText: help, fn: fn}
}

// Histogram returns the named histogram with the given bucket upper
// bounds (nil means DefBuckets), registering it on first use. Bounds
// must be strictly increasing.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	mustValidName(name)
	return r.register(name, help, func() metric { return newHistogram(help, buckets) }).(*Histogram)
}

// CounterWith returns the counter series family{label="value"},
// registering it on first use. The registry stays name-keyed: each
// label value is its own series, registered under the full series name
// (which Value and the JSON export use), and the Prometheus exposition
// groups a family's series under one HELP/TYPE header. Only counters
// take labels, which keeps histograms' own le label unambiguous.
func (r *Registry) CounterWith(family, label, value, help string) *Counter {
	mustValidName(family)
	mustValidName(label)
	if !validLabelValue(value) {
		panic("obs: invalid label value " + strconv.Quote(value))
	}
	name := family + "{" + label + `="` + value + `"}`
	return r.register(name, help, func() metric { return &Counter{helpText: help} }).(*Counter)
}

// Value reads the current value of the named scalar metric (counter,
// gauge, or gauge func). The second result is false when the metric is
// not registered or is not scalar (histograms have no single value).
// It exists for consumers that render live values outside the exposition
// formats — the embedded dashboard's fleet overview, tests asserting on
// one metric without parsing the whole scrape.
func (r *Registry) Value(name string) (float64, bool) {
	r.mu.RLock()
	m, ok := r.metrics[name]
	r.mu.RUnlock()
	if !ok {
		return 0, false
	}
	switch v := m.(type) {
	case *Counter:
		return float64(v.Value()), true
	case *Gauge:
		return v.Value(), true
	case *gaugeFunc:
		return v.value(), true
	}
	return 0, false
}

// snapshot returns the metrics sorted by family, then by series name,
// so a labeled family's series are adjacent.
func (r *Registry) snapshot() (names []string, metrics []metric) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names = make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if fi, fj := familyOf(names[i]), familyOf(names[j]); fi != fj {
			return fi < fj
		}
		return names[i] < names[j]
	})
	metrics = make([]metric, len(names))
	for i, name := range names {
		metrics[i] = r.metrics[name]
	}
	return names, metrics
}

// WritePrometheus renders every metric in the Prometheus text
// exposition format (version 0.0.4), sorted by name, with one HELP/TYPE
// header per family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	names, metrics := r.snapshot()
	prev := ""
	for i, name := range names {
		m := metrics[i]
		if family := familyOf(name); family != prev {
			if h := m.help(); h != "" {
				fmt.Fprintf(bw, "# HELP %s %s\n", family, h)
			}
			fmt.Fprintf(bw, "# TYPE %s %s\n", family, m.kind())
			prev = family
		}
		m.writeProm(bw, name)
	}
	return bw.Flush()
}

// WriteJSON renders every metric as one JSON object keyed by metric
// name (expvar style: scalars for counters/gauges, an object with
// count/sum/buckets for histograms).
func (r *Registry) WriteJSON(w io.Writer) error {
	names, metrics := r.snapshot()
	obj := make(map[string]any, len(names))
	for i, name := range names {
		obj[name] = metrics[i].jsonValue()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(obj) // encoding/json sorts map keys
}

// formatFloat renders a float the way Prometheus clients do.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v        atomic.Int64
	helpText string
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n (n must be non-negative; negative
// deltas are ignored to preserve monotonicity).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) kind() string { return "counter" }
func (c *Counter) help() string { return c.helpText }
func (c *Counter) writeProm(w io.Writer, name string) {
	fmt.Fprintf(w, "%s %d\n", name, c.Value())
}
func (c *Counter) jsonValue() any { return c.Value() }

// Gauge is a float metric that can move in both directions.
type Gauge struct {
	bits     atomic.Uint64
	helpText string
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one. Dec subtracts one.
func (g *Gauge) Inc() { g.Add(1) }
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) kind() string { return "gauge" }
func (g *Gauge) help() string { return g.helpText }
func (g *Gauge) writeProm(w io.Writer, name string) {
	fmt.Fprintf(w, "%s %s\n", name, formatFloat(g.Value()))
}
func (g *Gauge) jsonValue() any { return g.Value() }

// gaugeFunc is a gauge computed at export time.
type gaugeFunc struct {
	helpText string
	mu       sync.Mutex
	fn       func() float64
}

func (g *gaugeFunc) value() float64 {
	g.mu.Lock()
	fn := g.fn
	g.mu.Unlock()
	return fn()
}

func (g *gaugeFunc) kind() string { return "gauge" }
func (g *gaugeFunc) help() string { return g.helpText }
func (g *gaugeFunc) writeProm(w io.Writer, name string) {
	fmt.Fprintf(w, "%s %s\n", name, formatFloat(g.value()))
}
func (g *gaugeFunc) jsonValue() any { return g.value() }

// Histogram counts observations into fixed buckets. Buckets hold
// non-cumulative counts internally and render cumulatively (Prometheus
// semantics) at export.
type Histogram struct {
	bounds   []float64 // strictly increasing upper bounds; +Inf implicit
	counts   []atomic.Int64
	count    atomic.Int64
	sumBits  atomic.Uint64
	helpText string
}

func newHistogram(help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram buckets must be strictly increasing")
		}
	}
	h := &Histogram{
		bounds:   append([]float64(nil), bounds...),
		counts:   make([]atomic.Int64, len(bounds)+1), // last slot is +Inf
		helpText: help,
	}
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// First bucket whose upper bound contains v; the +Inf overflow slot
	// catches the rest.
	idx := sort.SearchFloat64s(h.bounds, v)
	h.counts[idx].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// BucketCounts returns the cumulative count at each bound plus the
// +Inf bucket (Prometheus semantics).
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, len(h.counts))
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		out[i] = cum
	}
	return out
}

func (h *Histogram) kind() string { return "histogram" }
func (h *Histogram) help() string { return h.helpText }

func (h *Histogram) writeProm(w io.Writer, name string) {
	cum := h.BucketCounts()
	for i, b := range h.bounds {
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatFloat(b), cum[i])
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum[len(cum)-1])
	fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
}

// histBucketJSON is one bucket in the JSON export.
type histBucketJSON struct {
	LE    string `json:"le"`
	Count int64  `json:"count"`
}

func (h *Histogram) jsonValue() any {
	cum := h.BucketCounts()
	buckets := make([]histBucketJSON, 0, len(cum))
	for i, b := range h.bounds {
		buckets = append(buckets, histBucketJSON{LE: formatFloat(b), Count: cum[i]})
	}
	buckets = append(buckets, histBucketJSON{LE: "+Inf", Count: cum[len(cum)-1]})
	return struct {
		Count   int64            `json:"count"`
		Sum     float64          `json:"sum"`
		Buckets []histBucketJSON `json:"buckets"`
	}{Count: h.Count(), Sum: h.Sum(), Buckets: buckets}
}
