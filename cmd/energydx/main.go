// Command energydx runs the 5-step manifestation analysis over a corpus
// of trace bundles (JSON lines, as produced by cmd/tracegen or dumped by
// cmd/collectd) and prints the diagnosis report. When the corpus belongs
// to one of the catalog apps, the code-reduction metric is computed
// against that app's APK model.
//
// Observability: -stats prints the per-step (1-5) wall/CPU latency
// breakdown sourced from the analysis spans, -trace exports every span
// (including one per worker task) as JSONL, and -cpuprofile/-memprofile
// write pprof profiles of the run.
//
// The -watch flag keeps the process alive and re-analyzes whenever the
// corpus file changes (polled every -watch-interval): reloads go
// through an incremental analyzer that caches per-trace Step-1 power
// estimation by content key, so appending one bundle to a large corpus
// re-runs Steps 2-5 but recomputes Step 1 only for the new bundle.
//
// When -in is an http(s) URL of a collectd -serve-analysis instance,
// -watch switches from file polling to the server's /analysis/events
// SSE stream: each report-update event triggers one conditional
// (If-None-Match) fetch of the versioned report, and the connection is
// resumed with Last-Event-ID after transient drops. -app selects which
// app to follow (required for remote watch).
//
// Usage:
//
//	tracegen -app k9mail -out corpus.jsonl
//	energydx -in corpus.jsonl -impacted-pct 15
//	energydx -in corpus.jsonl -stats -trace spans.jsonl -cpuprofile cpu.pb.gz
//	energydx -in corpus.jsonl -watch -watch-interval 2s
//	energydx -in http://127.0.0.1:7601 -app k9mail -watch
//
// Version comparison: -diff analyzes two corpora (a baseline and a
// candidate version of the same app) and prints the revision report —
// per-event-key power deltas, newly-manifesting and disappeared
// manifestation points, and culprit-ranked suspects. -gate evaluates
// the same diff against regression thresholds (defaults overridable
// via a -gate-config JSON file) and exits non-zero when the candidate
// regresses past any fence, so a CI job can fail the build:
//
//	energydx -diff base.jsonl candidate.jsonl
//	energydx -gate base.jsonl candidate.jsonl -gate-config gate.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/revision"
	"repro/internal/serve"
	"repro/internal/trace"
)

// errGateFailed marks a gate verdict (already rendered to stdout) as
// opposed to an operational error; both exit non-zero.
var errGateFailed = errors.New("regression gate failed")

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run runs the command with args (without the program name) on its
// own flag set and returns its exit status: 0 on success, 1 on an
// error or a failed -gate, 2 on a bad command line (0 for -h).
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("energydx", flag.ContinueOnError)
	fs.SetOutput(stderr)
	err := streams{stdin: stdin, stdout: stdout, stderr: stderr}.run(fs, args)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		return 2
	}
	fmt.Fprintln(stderr, "energydx:", err)
	return 1
}

// errUsage marks a command line the flag set rejected, after it
// printed the error and the usage.
var errUsage = errors.New("bad command line")

// streams are the command's standard streams: a corpus read from "-"
// comes from stdin, reports go to stdout, and logs, errors and -stats
// to stderr.
type streams struct {
	stdin          io.Reader
	stdout, stderr io.Writer
}

// run is the command once its flag set is made: it parses args and
// runs the analysis, diff, gate or watch they select.
func (s streams) run(fs *flag.FlagSet, args []string) error {
	var (
		in         = fs.String("in", "-", "corpus file of JSON-lines bundles ('-' for stdin)")
		impacted   = fs.Float64("impacted-pct", 0, "developer-estimated percentage of impacted users (0 = sort by impact)")
		window     = fs.Int("window", 2, "manifestation window half-width in events")
		fence      = fs.Float64("fence", 3, "IQR fence multiplier")
		normBase   = fs.Float64("norm-base", 10, "normalization base percentile")
		top        = fs.Int("top", 6, "events to report for the code-reduction metric")
		asJSON     = fs.Bool("json", false, "emit the full report as JSON instead of text")
		par        = fs.Int("parallel", 0, "analysis worker goroutines for Steps 1-4 (0 = GOMAXPROCS, 1 = serial); output is identical at any count")
		lenient    = fs.Bool("lenient", false, "tolerate corrupt input: skip undecodable corpus lines and invalid traces (accounted on stderr / in the report) instead of failing")
		watch      = fs.Bool("watch", false, "stay alive and re-analyze incrementally whenever -in changes (file path, not stdin); with an http(s) -in, follow the server's SSE event stream instead; exit on SIGINT/SIGTERM")
		appID      = fs.String("app", "", "app to follow when -watch points -in at a collectd analysis server URL")
		watchEvery = fs.Duration("watch-interval", 2*time.Second, "corpus file poll interval for -watch")
		diffMode   = fs.Bool("diff", false, "compare two corpora: energydx -diff <baseline> <candidate>; print the revision report")
		gateMode   = fs.Bool("gate", false, "CI regression gate: energydx -gate <baseline> <candidate>; exit non-zero when the candidate regresses past the thresholds")
		gateConfig = fs.String("gate-config", "", "JSON file overriding the default -gate thresholds")
		stats      = fs.Bool("stats", false, "print the per-step wall/CPU latency breakdown to stderr after the report")
		traceOut   = fs.String("trace", "", "write the analysis spans (steps + per-trace worker tasks) as JSONL to this file")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile at exit to this file")
		logLevel   = fs.String("log-level", "info", "log level: debug|info|warn|error")
		logFormat  = fs.String("log-format", "text", "log output format: text|json")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}

	logger, err := obs.NewLogger(s.stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	slog.SetDefault(logger)

	stopCPU, err := obs.StartCPUProfile(*cpuProfile)
	if err != nil {
		return err
	}
	defer stopCPU()

	cfg := core.DefaultConfig()
	cfg.DeveloperImpactPercent = *impacted
	cfg.WindowEvents = *window
	cfg.FenceMultiplier = *fence
	cfg.NormBasePercentile = *normBase
	cfg.Parallelism = *par
	cfg.SkipInvalidTraces = *lenient

	if *diffMode || *gateMode {
		if *watch {
			return errors.New("-diff/-gate and -watch are mutually exclusive")
		}
		if fs.NArg() != 2 {
			return fmt.Errorf("-diff/-gate take exactly two corpus files (baseline, candidate), got %d args", fs.NArg())
		}
		return s.runDiff(fs.Arg(0), fs.Arg(1), cfg, diffOptions{
			gate:       *gateMode,
			gateConfig: *gateConfig,
			asJSON:     *asJSON,
			lenient:    *lenient,
		}, logger)
	}

	if *watch {
		if *in == "-" {
			return errors.New("-watch requires -in to be a file or server URL, not stdin")
		}
		if *traceOut != "" {
			return errors.New("-trace is not supported with -watch (spans would accumulate without bound)")
		}
		if strings.HasPrefix(*in, "http://") || strings.HasPrefix(*in, "https://") {
			if *appID == "" {
				return errors.New("remote -watch requires -app (which app's reports to follow)")
			}
			if err := s.watchRemote(*in, *appID, *asJSON, *top, logger); err != nil {
				return err
			}
			return obs.WriteHeapProfile(*memProfile)
		}
		if err := s.watchLoop(*in, *watchEvery, cfg, *lenient, *asJSON, *top, *stats, logger); err != nil {
			return err
		}
		return obs.WriteHeapProfile(*memProfile)
	}

	bundles, err := s.readCorpus(*in, *lenient, logger)
	if err != nil {
		return err
	}
	if len(bundles) == 0 {
		return errors.New("corpus is empty")
	}

	var tracer *obs.Tracer
	if *traceOut != "" {
		// Per-task spans are only worth their cost when they will be
		// exported; the step-level breakdown for -stats is always on.
		tracer = obs.NewTracer()
		cfg.Tracer = tracer
	}
	analyzer, err := core.NewAnalyzer(cfg)
	if err != nil {
		return err
	}
	report, err := analyzer.Analyze(bundles)
	if err != nil {
		return err
	}
	for _, sk := range report.Skipped {
		logger.Warn("skipped invalid trace", "index", sk.Index, "trace", sk.TraceID, "reason", sk.Reason)
	}
	if tracer != nil {
		if err := writeSpans(*traceOut, tracer); err != nil {
			return err
		}
		logger.Info("wrote span trace", "path", *traceOut, "spans", len(tracer.Records()))
	}
	if err := s.printReport(report, *asJSON, *top); err != nil {
		return err
	}
	if *stats {
		if err := report.WriteStages(s.stderr); err != nil {
			return err
		}
	}
	return obs.WriteHeapProfile(*memProfile)
}

// printReport renders one diagnosis report to stdout: full JSON under
// -json, else the developer-facing text rendering followed by the
// code-reduction metric when the app's APK model is in the catalog.
func (s streams) printReport(report *core.Report, asJSON bool, top int) error {
	if asJSON {
		enc := json.NewEncoder(s.stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(report)
	}
	if err := report.WriteText(s.stdout); err != nil {
		return err
	}
	if app, err := apps.ByAppID(report.AppID); err == nil {
		cr, err := core.ComputeCodeReduction(report, app.Package(), top)
		if err != nil {
			return err
		}
		fmt.Fprintf(s.stdout, "\ncode reduction: %d of %d lines to inspect (%.1f%% reduction)\n",
			cr.DiagnosisLines, cr.TotalLines, cr.Reduction*100)
	}
	return nil
}

type diffOptions struct {
	gate       bool
	gateConfig string
	asJSON     bool
	lenient    bool
}

// runDiff analyzes the baseline and candidate corpora with identical
// configuration, compares the reports into a revision diff, and either
// prints it (-diff) or evaluates it against the regression gate
// (-gate). A gate failure is reported on stdout and surfaces as
// errGateFailed so the process exits non-zero for CI.
func (s streams) runDiff(basePath, candPath string, cfg core.Config, opts diffOptions, logger *slog.Logger) error {
	analyze := func(path string) (*core.Report, error) {
		bundles, err := s.readCorpus(path, opts.lenient, logger)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if len(bundles) == 0 {
			return nil, fmt.Errorf("%s: corpus is empty", path)
		}
		a, err := core.NewAnalyzer(cfg)
		if err != nil {
			return nil, err
		}
		return a.Analyze(bundles)
	}
	base, err := analyze(basePath)
	if err != nil {
		return err
	}
	cand, err := analyze(candPath)
	if err != nil {
		return err
	}
	if base.AppID != cand.AppID {
		return fmt.Errorf("corpora belong to different apps: %q vs %q", base.AppID, cand.AppID)
	}
	d := revision.Compare(base, cand)

	if !opts.gate {
		if opts.asJSON {
			enc := json.NewEncoder(s.stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(d)
		}
		return d.WriteText(s.stdout)
	}

	g := revision.DefaultGate()
	if opts.gateConfig != "" {
		if g, err = revision.LoadGate(opts.gateConfig); err != nil {
			return err
		}
	}
	res := g.Evaluate(d)
	if opts.asJSON {
		enc := json.NewEncoder(s.stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Diff *revision.Diff      `json:"diff"`
			Gate revision.GateResult `json:"gate"`
		}{d, res}); err != nil {
			return err
		}
	} else if err := res.WriteText(s.stdout); err != nil {
		return err
	}
	if !res.Pass {
		return errGateFailed
	}
	return nil
}

// watchLoop polls the corpus file and re-analyzes it through an
// incremental analyzer whenever its mtime or size changes. Bundles
// whose content survives a rewrite keep their cached Step-1 results,
// so an append costs one Step-1 computation plus Steps 2-5.
func (s streams) watchLoop(path string, interval time.Duration, cfg core.Config, lenient, asJSON bool, top int, stats bool, logger *slog.Logger) error {
	inc, err := core.NewIncrementalAnalyzer(cfg, 0)
	if err != nil {
		return err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sig)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	logger.Info("watching corpus", "path", path, "interval", interval)

	var lastMod time.Time
	lastSize := int64(-1)
	for {
		if fi, err := os.Stat(path); err != nil {
			logger.Warn("watch: stat failed; corpus may be mid-rewrite", "path", path, "err", err)
		} else if fi.ModTime() != lastMod || fi.Size() != lastSize {
			lastMod, lastSize = fi.ModTime(), fi.Size()
			if err := s.watchRefresh(inc, path, lenient, asJSON, top, stats, logger); err != nil {
				return err
			}
		}
		select {
		case got := <-sig:
			logger.Info("watch: shutting down", "signal", got.String())
			return nil
		case <-ticker.C:
		}
	}
}

// watchRefresh reloads the corpus, syncs the incremental analyzer's
// bundle set to it (content-key diff: additions computed, removals
// dropped, survivors served from cache), and reprints the report when
// anything actually changed. Transient read/analysis failures are
// logged and retried on the next poll, never fatal.
func (s streams) watchRefresh(inc *core.IncrementalAnalyzer, path string, lenient, asJSON bool, top int, stats bool, logger *slog.Logger) error {
	bundles, err := s.readCorpus(path, lenient, logger)
	if err != nil {
		logger.Warn("watch: corpus reload failed", "err", err)
		return nil
	}
	added, removed := inc.Sync(bundles)
	if added == 0 && removed == 0 {
		return nil // touched but content-identical: nothing to redo
	}
	start := time.Now()
	report, err := inc.Report()
	if err != nil {
		logger.Warn("watch: analysis failed", "err", err)
		return nil
	}
	for _, sk := range report.Skipped {
		logger.Warn("skipped invalid trace", "index", sk.Index, "trace", sk.TraceID, "reason", sk.Reason)
	}
	cs := inc.CacheStats()
	logger.Info("watch: re-analyzed corpus",
		"bundles", report.TotalTraces, "added", added, "removed", removed,
		"wall", time.Since(start).Round(time.Millisecond),
		"cache_hit_rate", fmt.Sprintf("%.3f", cs.HitRate()))
	fmt.Fprintf(s.stdout, "=== corpus changed (+%d/-%d bundles) ===\n", added, removed)
	if err := s.printReport(report, asJSON, top); err != nil {
		return err
	}
	if stats {
		return report.WriteStages(s.stderr)
	}
	return nil
}

// watchRemote follows a collectd analysis server: it subscribes to the
// /analysis/events SSE stream (resuming with Last-Event-ID across
// reconnects) and, on every report-update event for the app, fetches
// the versioned report conditionally — If-None-Match with the last
// printed ETag, so a replayed or duplicate event costs one 304, not a
// report transfer. Exits cleanly on SIGINT/SIGTERM.
func (s streams) watchRemote(baseURL, app string, asJSON bool, top int, logger *slog.Logger) error {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	client := &http.Client{}
	var lastID uint64
	var lastETag string
	logger.Info("watching analysis server", "url", baseURL, "app", app)

	backoff := time.Second
	for {
		err := serve.WatchEvents(ctx, client, baseURL, app, lastID, func(ev serve.StreamEvent) error {
			// Adopt every delivered ID, not the maximum: after a server
			// restart the IDs start again at 1, and resuming from the
			// old process's higher ID would replay the whole ring on
			// every reconnect.
			lastID = ev.ID
			backoff = time.Second // stream is delivering; reset reconnect delay
			return s.fetchRemoteReport(ctx, client, baseURL, app, &lastETag, asJSON, top, ev, logger)
		})
		if ctx.Err() != nil {
			logger.Info("watch: shutting down")
			return nil
		}
		if err == nil {
			err = io.EOF
		}
		logger.Warn("watch: event stream disconnected; reconnecting",
			"err", err, "last_event_id", lastID, "backoff", backoff)
		select {
		case <-ctx.Done():
			logger.Info("watch: shutting down")
			return nil
		case <-time.After(backoff):
		}
		if backoff < 30*time.Second {
			backoff *= 2
		}
	}
}

// fetchRemoteReport performs the conditional report fetch behind one
// stream event and prints the report when it actually changed.
// Transient failures log and return nil — the stream stays up and the
// next event retries.
func (s streams) fetchRemoteReport(ctx context.Context, client *http.Client, baseURL, app string, lastETag *string, asJSON bool, top int, ev serve.StreamEvent, logger *slog.Logger) error {
	u := strings.TrimSuffix(baseURL, "/") + "/analysis/report?app=" + url.QueryEscape(app)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	if *lastETag != "" {
		req.Header.Set("If-None-Match", *lastETag)
	}
	resp, err := client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		logger.Warn("watch: report fetch failed", "err", err)
		return nil
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNotModified:
		return nil // replayed/duplicate event: already printed this version
	case http.StatusOK:
	default:
		_, _ = io.Copy(io.Discard, resp.Body)
		logger.Warn("watch: report fetch failed", "status", resp.Status)
		return nil
	}
	var report core.Report
	if err := json.NewDecoder(resp.Body).Decode(&report); err != nil {
		logger.Warn("watch: report decode failed", "err", err)
		return nil
	}
	*lastETag = resp.Header.Get("ETag")
	fmt.Fprintf(s.stdout, "=== report update: %s v%d (etag %s) ===\n", ev.Event.App, ev.Event.Version, ev.Event.ETag)
	return s.printReport(&report, asJSON, top)
}

// writeSpans exports the tracer's spans as JSONL.
func writeSpans(path string, tracer *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = tracer.WriteJSONL(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func (s streams) readCorpus(path string, lenient bool, logger *slog.Logger) ([]*trace.TraceBundle, error) {
	r := s.stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	if !lenient {
		return trace.ReadBundles(r)
	}
	var bundles []*trace.TraceBundle
	skipped := 0
	err := trace.ScanBundlesLenient(r,
		func(b *trace.TraceBundle) error {
			bundles = append(bundles, b)
			return nil
		},
		func(bad trace.BadBundleLine) error {
			skipped++
			logger.Warn("skipping corpus line", "line", bad.Line, "err", bad.Err)
			return nil
		})
	if err != nil {
		return nil, err
	}
	if skipped > 0 {
		logger.Warn("skipped undecodable corpus lines", "count", skipped)
	}
	return bundles, nil
}
