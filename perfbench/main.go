// Command perfbench is the repository benchmark. It runs one seeded
// workload against the layers' public APIs in a few worker processes,
// one after another, checks every output, and prints the end-to-end
// metrics (untraced run) or the per-layer metrics and the tracing
// overhead (traced run). The last line of standard output is a JSON
// object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload hot-app --seed 1 --seconds 40 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricSpec names one reported metric and its unit. endToEnd and
// perLayer are the metrics the result line carries; BENCHMARK.json
// names the same metrics (a test keeps them in step).
type metricSpec struct {
	Name, Unit string
}

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"live_heap_mb", "MB"},
	{"bundles_per_s", "1/s"},
	{"visible_p50_ms", "ms"},
	{"gates_per_s", "1/s"},
}

// ungated are end-to-end figures every run prints as comment lines but
// the result line does not carry, because they do not hold steady on a
// shared machine: hot-app's acks wait on fsyncs of a shared disk, and
// the tails follow flush collisions, garbage collection and the
// machine's neighbours (README.md gives the measurements).
var ungated = []metricSpec{
	{"ack_p50_ms", "ms"},
	{"gate_p50_ms", "ms"},
	{"ack_tail_ms", "ms"},
	{"visible_tail_ms", "ms"},
	{"gate_tail_ms", "ms"},
}

var perLayer = []metricSpec{
	{"binenc.encode_us", "us"},
	{"binenc.decode_us", "us"},
	{"binenc.wire_bytes_per_bundle", "bytes"},
	{"collect.upload_ms", "ms"},
	{"collect.store_append_us", "us"},
	{"collect.server_self_us", "us"},
	{"collect.attempts_per_upload", "count"},
	{"collect.accepted", "count"},
	{"collect.duplicated", "count"},
	{"collect.quarantined", "count"},
	{"seglog.fsyncs_per_bundle", "count"},
	{"seglog.replay_s", "s"},
	{"serve.notify_p50_us", "us"},
	{"serve.notify_tail_us", "us"},
	{"serve.notify_mean_us", "us"},
	{"serve.flushes", "count"},
	{"serve.bundles_per_flush", "count"},
	{"serve.report_ms", "ms"},
	{"serve.materialize_ms", "ms"},
	{"serve.read_ms", "ms"},
	{"serve.report_mb", "MB"},
	{"serve.debounce_wait_ms", "ms"},
	{"core.step1_hit_rate", "frac"},
	{"core.summary_mb", "MB"},
	{"core.first_report_s", "s"},
	{"revision.analyze_ms", "ms"},
	{"revision.compare_ms", "ms"},
	{"revision.evaluate_us", "us"},
	{"revision.churn_frac", "frac"},
	{"harness.late_ms", "ms"},
	{"harness.trace_overhead_frac", "frac"},
}

// spanDir is where traced runs write their spans, one file per
// worker process.
var spanDir = filepath.Join(".bench_build", "perfbench-spans")

// setupReps is how many times each process sets its workload up;
// setup_s is the median over a run's set-ups, and each process
// measures on its last one. revision-gate's set-up takes tens of
// milliseconds, so it repeats its set-up gateSetupReps times instead.
const (
	setupReps     = 3
	gateSetupReps = 10
)

// runConfig is one measured run of a workload.
type runConfig struct {
	seed   int64
	window time.Duration // the measured phase's length
	tr     *tracer       // nil: untraced
	dir    string        // the run's private store directory
}

// outcome is what one workload run reports; a worker process sends it
// to the parent as JSON. The end-to-end metrics are computed from the
// raw measurements, pooled over a run's processes (see endToEndOf).
type outcome struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errs      []string `json:"errs,omitempty"`
	// Setups are the set-up times, s; HeapMB the live heap at the end
	// of the measured phase.
	Setups []float64 `json:"setups"`
	HeapMB float64   `json:"heapMB"`
	// Wall is the measured phase's length, s; Bundles and Gates what it
	// completed (README.md gives each workload's meaning).
	Wall    float64 `json:"wall"`
	Bundles float64 `json:"bundles"`
	Gates   float64 `json:"gates"`
	// Ack, Visible and Gate are latency samples, ms.
	Ack     []float64          `json:"ack"`
	Visible []float64          `json:"visible"`
	Gate    []float64          `json:"gate"`
	Layer   map[string]float64 `json:"layer,omitempty"`
	Notes   []string           `json:"notes,omitempty"`
	spans   []spanRecord
}

func newOutcome() *outcome {
	return &outcome{Layer: map[string]float64{}}
}

// measured records the measured phase: its length, what it completed,
// and the latency samples.
func (o *outcome) measured(wall, bundles, gates float64, ack, visible, gate []float64) {
	o.Wall, o.Bundles, o.Gates = wall, bundles, gates
	o.Ack, o.Visible, o.Gate = ack, visible, gate
}

// note adds a human-readable line to the run's report.
func (o *outcome) note(format string, args ...any) {
	o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
}

// check records failed output checks as failed operations.
func (o *outcome) check(errs ...error) {
	for _, err := range errs {
		if err != nil {
			o.Errs = append(o.Errs, err.Error())
			o.Failed++
		}
	}
}

// endToEndOf computes the end-to-end figures of a run from its
// processes' outcomes. Each process is one block of the run: a median
// latency is the median over the blocks of each block's median, so a
// slow spell of the machine that covers less than half of a run does
// not move it. A tail is taken from the samples pooled over the blocks,
// so that it reaches as high a percentile as the run allows.
// Completions are pooled over the blocks' wall time and set-up times
// are pooled; the live heap is the median across blocks. The notes give
// each latency's sample count and tail percentile.
func endToEndOf(outs []*outcome) (map[string]float64, map[string]string) {
	var setups, heaps []float64
	var wall, bundles, gates float64
	samples := map[string][][]float64{}
	for _, o := range outs {
		setups = append(setups, o.Setups...)
		heaps = append(heaps, o.HeapMB)
		wall += o.Wall
		bundles += o.Bundles
		gates += o.Gates
		for name, xs := range map[string][]float64{"ack": o.Ack, "visible": o.Visible, "gate": o.Gate} {
			if len(xs) > 0 {
				samples[name] = append(samples[name], xs)
			}
		}
	}
	m := map[string]float64{
		"setup_s":       median(setups),
		"live_heap_mb":  median(heaps),
		"bundles_per_s": ratio(bundles, wall),
		"gates_per_s":   ratio(gates, wall),
	}
	notes := map[string]string{}
	for _, name := range []string{"ack", "visible", "gate"} {
		var p50s, pooled []float64
		for _, xs := range samples[name] {
			p50s = append(p50s, median(xs))
			pooled = append(pooled, xs...)
		}
		d := summarize(pooled)
		m[name+"_p50_ms"], m[name+"_tail_ms"] = median(p50s), d.Tail
		notes[name+"_p50_ms"] = fmt.Sprintf(" (median of %d blocks; n=%d)", len(p50s), d.N)
		notes[name+"_tail_ms"] = fmt.Sprintf(" (p%g; n=%d)", d.TailAt, d.N)
	}
	return m, notes
}

// merge combines the outcomes of a run's processes: operation counts
// and check failures add up, and each per-layer metric is the median
// across processes.
func merge(outs []*outcome) *outcome {
	m := newOutcome()
	layer := map[string][]float64{}
	for _, o := range outs {
		m.Attempted += o.Attempted
		m.Failed += o.Failed
		m.Errs = append(m.Errs, o.Errs...)
		for k, v := range o.Layer {
			layer[k] = append(layer[k], v)
		}
	}
	if len(outs) > 0 {
		m.Notes = outs[0].Notes
	}
	for k, vs := range layer {
		m.Layer[k] = median(vs)
	}
	return m
}

type workloadSpec struct {
	run func(runConfig) (*outcome, error)
	// procs is how many worker processes share the measured phase, one
	// after another, each measuring its slice of the window. Timings of
	// memory-heavy code differ by up to a third from one process to the
	// next and hardly within one, so a run pools several processes.
	procs int
	// headline is the end-to-end metric the tracing overhead compares.
	headline string
	why      string
}

var workloads = map[string]workloadSpec{
	"ingest-fleet":  {runIngest, 5, "ack_p50_ms", "binenc, collect and seglog do all the work; serve, core and revision none"},
	"hot-app":       {runHot, 2, "ack_p50_ms", "one hot app served under the default debounce: flush, materialize and long-poll read dominate"},
	"revision-gate": {runGate, 4, "gate_p50_ms", "CI gate over churning version chains: core under add/remove churn plus revision diff and gate"},
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload: ingest-fleet, hot-app or revision-gate")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "length of the measured phase")
		traced  = flag.Int("trace", 0, "1: traced run printing per-layer metrics and the tracing overhead")
		worker  = flag.Int("worker", -1, "internal: run as worker process k of the run")
	)
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		return 2
	}
	var err error
	if *worker >= 0 {
		window := time.Duration(*seconds) * time.Second / time.Duration(wl.procs)
		err = runWorker(wl, *name, *seed, window, *traced == 1, *worker)
	} else {
		err = runParent(wl, *name, *seed, *seconds, *traced == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// errChecksFailed makes the command fail after its result line.
var errChecksFailed = errors.New("output checks failed")

// runWorker runs the workload once in this process and prints its
// outcome as the last line.
func runWorker(wl workloadSpec, name string, seed int64, window time.Duration, traced bool, k int) error {
	dir := filepath.Join(".bench_build", fmt.Sprintf("perfbench-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rc := runConfig{seed: subSeed(seed, streamProc+uint64(k)), window: window, dir: dir}
	if traced {
		rc.tr = newTracer()
	}
	o, err := wl.run(rc)
	if err != nil {
		return err
	}
	if traced {
		printSpanTable(o.spans)
		if err := os.MkdirAll(spanDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d-proc%d.jsonl", name, seed, k))
		if err := writeSpans(path, map[string]any{"workload": name, "seed": seed, "proc": k}, o.spans); err != nil {
			return err
		}
		fmt.Printf("# spans: %d written to %s\n", len(o.spans), path)
	}
	line, err := json.Marshal(o)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runWorkers runs the workload's worker processes one after another and
// returns their outcomes. Their comment lines are passed through.
func runWorkers(wl workloadSpec, name string, seed int64, seconds int, traced bool) ([]*outcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	var outs []*outcome
	for k := 0; k < wl.procs; k++ {
		cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", trace, "--worker", strconv.Itoa(k))
		cmd.Stderr = os.Stderr
		// A worker must not outlive the run if the parent is killed.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("worker %d: %w", k, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		for _, l := range lines[:len(lines)-1] {
			fmt.Printf("#   [proc %d] %s\n", k, strings.TrimPrefix(l, "# "))
		}
		o := newOutcome()
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), o); err != nil {
			return nil, fmt.Errorf("worker %d result: %w", k, err)
		}
		m, _ := endToEndOf([]*outcome{o})
		var parts []string
		for _, spec := range slices.Concat(endToEnd, ungated) {
			parts = append(parts, fmt.Sprintf("%s=%.4g", spec.Name, m[spec.Name]))
		}
		fmt.Printf("#   [proc %d] %s\n", k, strings.Join(parts, " "))
		outs = append(outs, o)
	}
	return outs, nil
}

// runParent stamps the machine, runs the workers (untraced, then traced
// when asked) and prints the result line.
func runParent(wl workloadSpec, name string, seed int64, seconds int, traced bool) error {
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	probeDir := filepath.Join(".bench_build", fmt.Sprintf("perfbench-%d", os.Getpid()))
	if err := os.MkdirAll(probeDir, 0o755); err != nil {
		return err
	}
	fp, err := takeFingerprint(probeDir, root)
	os.RemoveAll(probeDir)
	if err != nil {
		return err
	}
	fpJSON, err := json.Marshal(fp)
	if err != nil {
		return err
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%t procs=%d\n", name, seed, seconds, traced, wl.procs)
	fmt.Printf("# why: %s\n", wl.why)
	fmt.Printf("# fingerprint %s\n", fpJSON)

	outs, err := runWorkers(wl, name, seed, seconds, false)
	if err != nil {
		return err
	}
	plain := merge(outs)
	e2e, notes := endToEndOf(outs)
	report("untraced", plain, e2e, notes)
	result, specs, values := plain, endToEnd, e2e
	if traced {
		touts, err := runWorkers(wl, name, seed, seconds, true)
		if err != nil {
			return err
		}
		tr := merge(touts)
		te2e, tnotes := endToEndOf(touts)
		tr.Layer["harness.trace_overhead_frac"] = ratio(te2e[wl.headline], e2e[wl.headline]) - 1
		report("traced", tr, te2e, tnotes)
		result = merge(append(outs, touts...))
		specs, values = perLayer, tr.Layer
	}
	metrics := make(map[string]metricOut, len(specs))
	for _, m := range specs {
		v, ok := values[m.Name]
		if !ok {
			return fmt.Errorf("%s did not report %s", name, m.Name)
		}
		metrics[m.Name] = metricOut{v, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{len(result.Errs) == 0, result.Attempted, result.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if len(result.Errs) > 0 {
		return errChecksFailed
	}
	return nil
}

// metricOut is one metric in the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints a merged run's metrics, notes and check results as
// comment lines.
func report(label string, o *outcome, e2e map[string]float64, notes map[string]string) {
	fmt.Printf("# --- %s: %d operations attempted, %d failed\n", label, o.Attempted, o.Failed)
	for _, m := range endToEnd {
		fmt.Printf("#   %-22s %14.4f %-5s%s\n", m.Name, e2e[m.Name], m.Unit, notes[m.Name])
	}
	for _, m := range ungated {
		fmt.Printf("#   %-22s %14.4f %-5s%s, not gated\n", m.Name, e2e[m.Name], m.Unit, notes[m.Name])
	}
	if len(o.Layer) > 0 {
		for _, m := range perLayer {
			fmt.Printf("#   %-30s %14.4f %s\n", m.Name, o.Layer[m.Name], m.Unit)
		}
	}
	for _, n := range o.Notes {
		fmt.Printf("#   note: %s\n", n)
	}
	if len(o.Errs) == 0 {
		fmt.Printf("#   checks: all passed\n")
	}
	for _, e := range o.Errs {
		fmt.Printf("#   CHECK FAILED: %s\n", e)
	}
}

// printSpanTable prints per-span-name counts, latency and self time.
func printSpanTable(spans []spanRecord) {
	stats := spanStats(spans)
	sort.Slice(stats, func(i, j int) bool { return stats[i].SelfTotal > stats[j].SelfTotal })
	fmt.Printf("# %-24s %8s %12s %12s %12s %12s\n", "span", "count", "p50", "tail", "self p50", "self total")
	for _, s := range stats {
		fmt.Printf("# %-24s %8d %12v %12v %12v %12v\n", s.Name, s.Count,
			s.P50.Round(time.Microsecond), s.Tail.Round(time.Microsecond),
			s.SelfP50.Round(time.Microsecond), s.SelfTotal.Round(time.Microsecond))
	}
}
