// Command collectd runs the EnergyDx trace-collection server. Phones
// (or cmd/tracegen) upload binenc-framed trace bundles over TCP; on
// shutdown (SIGINT/SIGTERM) the server dumps its stored corpus as one
// JSON-lines file per app, <out>/<app>.jsonl (app IDs that are not
// path-safe are sanitized and suffixed with a hash), and — with -store
// — every rejected upload the store holds to
// <out>/quarantine/rejected.jsonl.
//
// The -store flag makes ingest durable: accepted bundles and rejects
// are group-committed to a segmented binary log (fsyncs are amortized
// across concurrent uploads), and a restart over the same directory
// restores every acknowledged bundle.
//
// The -faults flag turns the server into a chaos rig: received frames
// are corrupted, truncated, duplicated, delayed or their connections
// dropped behind a seeded RNG, which exercises client retry and the
// server's quarantine exactly as an unreliable network would.
//
// The -debug-addr flag exposes the observability surface: /metrics
// (Prometheus text, ?format=json for expvar JSON), /healthz, /readyz,
// /debug/vars and the net/http/pprof suite. /readyz flips to 503 the
// moment a shutdown signal arrives, so a load balancer drains the
// instance before the listener closes.
//
// The -serve-analysis flag turns the collector into an online
// diagnosis service: accepted bundles feed per-app incremental
// analyzers (Step-1 results cached by content key), re-analysis is
// debounced per app behind upload bursts (a quiet period of the app's
// last flush cost, at most -analysis-debounce), and the latest report per app is
// served under /analysis/ on the debug mux — versioned (strong ETag,
// If-None-Match/304, ?wait= long-poll), with a snapshot history ring,
// a live SSE update stream and read-only what-if re-analysis:
//
//	curl http://127.0.0.1:7601/analysis/apps
//	curl http://127.0.0.1:7601/analysis/report?app=k9mail
//	curl -N http://127.0.0.1:7601/analysis/events
//	curl 'http://127.0.0.1:7601/analysis/whatif?app=k9mail&fence=2'
//
// The same service backs the embedded operator dashboard at /ui/ —
// fleet overview with live SSE row updates, per-app power-vs-rank
// charts with manifestation windows and the amplitude fence, snapshot
// history and what-if knobs. All debug-mux traffic is instrumented
// with per-endpoint request counters and latency histograms.
//
// For fleet-scale ingest, -shards N splits the ingest state into N
// in-process shards by hash(appID): the one listener hands each frame
// to the shard owning its app, which keeps that app's dedup state and
// a store partition under <store>/shard-<i> (one shard uses <store>
// itself). Analysis is one service at every shard count: every shard's
// ingest hook feeds it, so /analysis/ and /ui/ behave the same sharded
// or not.
//
// Usage:
//
//	collectd -addr 127.0.0.1:7600 -out ./corpora
//	collectd -store ./store -faults 'corrupt=0.1,drop=0.05,seed=7'
//	collectd -debug-addr 127.0.0.1:7601 -serve-analysis
//	collectd -shards 4 -store ./store
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/collect"
	"repro/internal/collect/seglog"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/ui"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "collectd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr         = flag.String("addr", "127.0.0.1:7600", "listen address")
		out          = flag.String("out", ".", "directory for per-app corpus dumps on shutdown")
		storeDir     = flag.String("store", "", "durable store directory: bundles are group-committed to a segmented log as they arrive and reloaded on restart")
		shards       = flag.Int("shards", 1, "in-process ingest shards partitioned by hash(appID); one listener dispatches each frame to its app's shard, each shard owns its apps' store partition (<store>/shard-<i> above 1), and all shards feed one analysis service")
		parallelism  = flag.Int("parallelism", 0, "worker count for the shutdown corpus dump (0 = GOMAXPROCS, 1 = serial)")
		faultSpec    = flag.String("faults", "", "chaos fault injection on received frames, e.g. 'corrupt=0.1,truncate=0.05,duplicate=0.1,drop=0.05,delay=0.2,seed=7'")
		maxLineBytes = flag.Int("max-line-bytes", 0, "reject serialized bundles over this size (0 = default 16 MiB)")
		maxRecords   = flag.Int("max-records", 0, "reject bundles with more event records than this (0 = default)")
		debugAddr    = flag.String("debug-addr", "", "serve /metrics, /healthz, /readyz, /debug/vars and /debug/pprof on this address ('' = disabled)")
		serveAnal    = flag.Bool("serve-analysis", false, "incrementally re-analyze ingested bundles and serve the latest per-app report under /analysis/ on -debug-addr")
		analDebounce = flag.Duration("analysis-debounce", 500*time.Millisecond, "upper bound on each app's quiet period after its last upload before it is re-analyzed; the quiet period is the app's last flush cost")
		logLevel     = flag.String("log-level", "info", "log level: debug|info|warn|error")
		logFormat    = flag.String("log-format", "text", "log output format: text|json")
	)
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	slog.SetDefault(logger)

	if *shards < 1 {
		return fmt.Errorf("-shards must be >= 1, got %d", *shards)
	}

	var injector *faults.Injector
	if *faultSpec != "" {
		fcfg, err := faults.ParseSpec(*faultSpec)
		if err != nil {
			return err
		}
		injector, err = faults.New(fcfg)
		if err != nil {
			return err
		}
		logger.Warn("CHAOS MODE: injecting faults on received frames", "spec", *faultSpec)
	}
	// One serving layer for the whole deployment: it is keyed by app,
	// and every shard's ingest hook feeds it.
	var svc *serve.Service
	if *serveAnal {
		if *debugAddr == "" {
			return errors.New("-serve-analysis requires -debug-addr (reports are served on the debug mux)")
		}
		svc, err = serve.New(serve.Config{
			Analysis: core.DefaultConfig(),
			Debounce: *analDebounce,
			Logger:   logger,
		})
		if err != nil {
			return err
		}
		defer svc.Close()
	}

	health := obs.NewHealth()
	var debug *obs.DebugServer
	if *debugAddr != "" {
		mux := obs.DebugMux(obs.Default, health)
		paths := "/metrics /healthz /readyz /debug/vars /debug/pprof"
		if svc != nil {
			mux.Handle("/analysis/", svc.Handler())
			dash, err := ui.New(svc, obs.Default)
			if err != nil {
				return err
			}
			mux.Handle("/ui/", dash.Handler())
			mux.Handle("/ui", dash.Handler())
			paths += " /analysis /ui"
		}
		// Per-endpoint request counters and latency histograms over the
		// whole debug surface (dashboard and SSE stream included).
		debug, err = obs.ServeDebug(*debugAddr, obs.Default.InstrumentHTTP(mux, nil))
		if err != nil {
			return err
		}
		defer debug.Close()
		logger.Info("debug endpoints up", "addr", debug.Addr(), "paths", paths)
	}

	// One store per shard. One shard keeps the bare store directory, so
	// a store written before sharding restarts unchanged.
	var stores []collect.Store
	defer func() {
		for _, st := range stores {
			st.Close()
		}
	}()
	if *storeDir != "" {
		for i := 0; i < *shards; i++ {
			dir := *storeDir
			if *shards > 1 {
				dir = filepath.Join(dir, fmt.Sprintf("shard-%d", i))
			}
			store, err := collect.NewSegStore(dir, seglog.Options{})
			if err != nil {
				return err
			}
			stores = append(stores, store)
		}
	}
	srv, err := collect.NewShardedServer(*addr, *shards, func(i int) []collect.ServerOption {
		o := []collect.ServerOption{collect.WithLimits(collect.Limits{
			MaxLineBytes: *maxLineBytes,
			MaxRecords:   *maxRecords,
		})}
		if injector != nil {
			o = append(o, collect.WithServerFaults(injector))
		}
		if stores != nil {
			o = append(o, collect.WithStore(stores[i]))
		}
		if svc != nil {
			o = append(o, collect.WithIngestHook(svc.Notify))
		}
		return o
	})
	if err != nil {
		return err
	}
	// Warm the analysis service from the restored stores so reports are
	// available before the first new upload arrives.
	if svc != nil && srv.Count() > 0 {
		for _, app := range srv.Apps() {
			for _, b := range srv.Bundles(app) {
				svc.Notify(b)
			}
		}
		svc.Flush()
		logger.Info("analysis warmed from restored store", "bundles", srv.Count())
	}
	health.SetReady(true)
	logger.Info("listening", "addr", srv.Addr(), "restored_bundles", srv.Count(),
		"shards", *shards)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	got := <-sig
	// Drain: flip the health endpoints before touching the listener so
	// load balancers stop routing, then close and wait for in-flight
	// handlers.
	health.ShuttingDown()
	preClose := srv.Stats()
	logger.Info("shutdown signal received", "signal", got.String(),
		"bundles", srv.Count(), "quarantined", srv.QuarantineCount(),
		"connections_inflight", preClose.ConnsOpen)
	start := time.Now()
	if err := srv.Close(); err != nil {
		return err
	}
	st := srv.Stats()
	logger.Info("drained",
		"connections_drained", preClose.ConnsOpen,
		"connections_total", st.ConnsTotal,
		"drain_elapsed", time.Since(start).Round(time.Millisecond),
		"accepted", st.Accepted, "duplicated", st.Duplicated,
		"quarantined", st.Quarantined, "bytes_ingested", st.BytesIngested)
	if injector != nil {
		logger.Info("injected faults", "stats", injector.Stats().String())
	}
	dumps, err := dumpCorpus(*out, *parallelism, srv)
	if err != nil {
		return err
	}
	flushed := 0
	for _, d := range dumps {
		flushed += d.bundles
		logger.Info("wrote corpus dump", "path", d.path, "bundles", d.bundles)
	}
	rejected, err := dumpQuarantine(*out, stores)
	if err != nil {
		return err
	}
	if rejected > 0 {
		logger.Info("wrote quarantine dump", "path", filepath.Join(*out, quarantineDump), "rejects", rejected)
	}
	logger.Info("shutdown complete", "apps_flushed", len(dumps), "bundles_flushed", flushed)
	return nil
}

// corpusSource is the read side of the ingest server the dump needs.
type corpusSource interface {
	Apps() []string
	Bundles(appID string) []*trace.TraceBundle
}

type dumpStat struct {
	path    string
	bundles int
}

// dumpCorpus writes each app's bundles to out/<app>.jsonl. App IDs
// come straight from uploads, so the file name goes through
// collect.SanitizeAppID: no ID can name a path outside out, and two
// distinct IDs never share a file. Per-app dumps are independent files,
// so they fan out through the pool.
func dumpCorpus(out string, parallelism int, src corpusSource) ([]dumpStat, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	appIDs := src.Apps()
	return parallel.Map(parallelism, len(appIDs), func(i int) (dumpStat, error) {
		bundles := src.Bundles(appIDs[i])
		path := filepath.Join(out, collect.SanitizeAppID(appIDs[i])+".jsonl")
		f, err := os.Create(path)
		if err != nil {
			return dumpStat{}, fmt.Errorf("%s: %w", appIDs[i], err)
		}
		err = trace.WriteBundles(f, bundles)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return dumpStat{}, fmt.Errorf("%s: %w", appIDs[i], err)
		}
		return dumpStat{path: path, bundles: len(bundles)}, nil
	})
}

// quarantineDump is where the shutdown dump lists rejected uploads,
// relative to -out: one JSON-encoded collect.QuarantineEntry per line.
const quarantineDump = "quarantine/rejected.jsonl"

// dumpQuarantine writes every reject the stores hold, store by store in
// arrival order, to out/quarantine/rejected.jsonl and returns how many
// it wrote. With no rejects it writes nothing.
func dumpQuarantine(out string, stores []collect.Store) (int, error) {
	var entries []collect.QuarantineEntry
	for _, st := range stores {
		es, err := st.LoadQuarantine()
		if err != nil {
			return 0, err
		}
		entries = append(entries, es...)
	}
	if len(entries) == 0 {
		return 0, nil
	}
	path := filepath.Join(out, quarantineDump)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	enc := json.NewEncoder(f)
	for _, e := range entries {
		if err = enc.Encode(e); err != nil {
			break
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return len(entries), err
}
