package experiments

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/collect"
	"repro/internal/collect/seglog"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/trace"
)

// Fleet-scale ingest benchmark: N synthetic phone sessions across M
// apps upload through the sharded binary ingest path (one listener
// dispatching to hashed shards → segmented group-commit log → one
// incremental analysis service fed by every shard) while the benchmark
// samples how stale the freshest report is. The defaults keep
// `reproduce -exp all` and the registry test quick; the headline
// configuration from the paper-scale run is
//
//	FLEET_SESSIONS=1000000 FLEET_APPS=10000 reproduce -exp fleet
//
// and the CI fleet gate pins floors at FLEET_SESSIONS=10000
// FLEET_APPS=500 (see fleet_gate_test.go).

// fleetDefaults are the quick-run parameters; every one has a FLEET_*
// environment override so the same runner serves the smoke run, the CI
// gate and the 1M-session headline without recompiling.
const (
	fleetDefaultSessions  = 20000
	fleetDefaultApps      = 1000
	fleetDefaultShards    = 4
	fleetDefaultUploaders = 64
	// fleetChunk is how many sessions one Upload call carries: one TCP
	// connection, one hello exchange, chunk acks.
	fleetChunk = 100
	// fleetDebounce bounds each app's quiet period; the quiet period
	// itself is the app's last flush cost, so under sustained load an
	// app's report staleness is bounded by about 11 of its own flush
	// costs, not by this bound or by other apps' traffic.
	fleetDebounce = 200 * time.Millisecond
	// fleetSamplePeriod is how often the staleness probe reads
	// Service.OldestDirtyAge.
	fleetSamplePeriod = 20 * time.Millisecond
)

// FleetConfig is one fleet run's resolved shape.
type FleetConfig struct {
	Sessions  int
	Apps      int
	Shards    int
	Uploaders int
}

// FleetConfigFromEnv resolves the run shape from FLEET_SESSIONS,
// FLEET_APPS, FLEET_SHARDS and FLEET_UPLOADERS, falling back to the
// quick-run defaults.
func FleetConfigFromEnv() FleetConfig {
	return FleetConfig{
		Sessions:  envPosInt("FLEET_SESSIONS", fleetDefaultSessions),
		Apps:      envPosInt("FLEET_APPS", fleetDefaultApps),
		Shards:    envPosInt("FLEET_SHARDS", fleetDefaultShards),
		Uploaders: envPosInt("FLEET_UPLOADERS", fleetDefaultUploaders),
	}
}

// envPosInt reads a positive integer from the environment.
func envPosInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// FleetResult reports the fleet benchmark.
type FleetResult struct {
	Config  FleetConfig
	Elapsed time.Duration
	// QPS is sustained accepted sessions per second of ingest wall time.
	QPS float64
	// AckP50/AckP99 are per-bundle send→ack round trips across all
	// uploaders.
	AckP50, AckP99 time.Duration
	// FsyncsPerBundle is total seglog fsyncs over accepted bundles;
	// group commit's whole point is a value well under 1.
	FsyncsPerBundle float64
	// StalenessP50/StalenessP99 are quantiles of the worst per-app
	// report staleness (Service.OldestDirtyAge), sampled every
	// fleetSamplePeriod while the fleet uploads.
	StalenessP50, StalenessP99 time.Duration
	// Accepted/Duplicated/Quarantined are fleet-wide ingest counters.
	Accepted, Duplicated, Quarantined int64
	// WireBytes is the total bytes offered to ingestion.
	WireBytes int64
	// Fsyncs and Commits detail: fsyncs is the summed seglog commit
	// count, appends the summed record count.
	Fsyncs, Appends int64
	// AnalyzedApps is how many apps had a report after the final drain.
	AnalyzedApps int
}

// ExperimentID implements Result.
func (r *FleetResult) ExperimentID() string { return "fleet" }

// Render implements Result.
func (r *FleetResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fleet (extension): sharded binary ingest at fleet scale\n")
	fmt.Fprintf(&sb, "  %d sessions / %d apps / %d shards / %d uploaders in %v\n",
		r.Config.Sessions, r.Config.Apps, r.Config.Shards, r.Config.Uploaders,
		r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&sb, "  sustained ingest:   %.0f sessions/s (%d accepted, %d dup, %d quarantined, %.1f MiB wire)\n",
		r.QPS, r.Accepted, r.Duplicated, r.Quarantined, float64(r.WireBytes)/(1<<20))
	fmt.Fprintf(&sb, "  ack latency:        p50 %v, p99 %v\n",
		r.AckP50.Round(time.Microsecond), r.AckP99.Round(time.Microsecond))
	fmt.Fprintf(&sb, "  group commit:       %.4f fsyncs/bundle (%d fsyncs over %d appends)\n",
		r.FsyncsPerBundle, r.Fsyncs, r.Appends)
	fmt.Fprintf(&sb, "  report staleness:   p50 %v, p99 %v (%d apps analyzed)\n",
		r.StalenessP50.Round(time.Millisecond), r.StalenessP99.Round(time.Millisecond),
		r.AnalyzedApps)
	return sb.String()
}

// CSVFiles implements CSVExporter.
func (r *FleetResult) CSVFiles() map[string][][]string {
	return map[string][][]string{
		"fleet.csv": {
			{"sessions", "apps", "shards", "uploaders", "elapsed_s", "qps",
				"ack_p50_us", "ack_p99_us", "fsyncs_per_bundle",
				"staleness_p50_ms", "staleness_p99_ms"},
			{
				strconv.Itoa(r.Config.Sessions), strconv.Itoa(r.Config.Apps),
				strconv.Itoa(r.Config.Shards), strconv.Itoa(r.Config.Uploaders),
				ftoa(r.Elapsed.Seconds()), ftoa(r.QPS),
				ftoa(float64(r.AckP50.Microseconds())), ftoa(float64(r.AckP99.Microseconds())),
				ftoa(r.FsyncsPerBundle),
				ftoa(float64(r.StalenessP50.Milliseconds())), ftoa(float64(r.StalenessP99.Milliseconds())),
			},
		},
	}
}

var _ CSVExporter = (*FleetResult)(nil)

// fleetSession synthesizes one phone session: a short callback trace
// (three balanced enter/exit pairs) plus a matching utilization trace.
// Sessions are tiny on purpose — the fleet benchmark stresses the
// ingest path's per-session costs (framing, dedup, group commit,
// routing), not per-record analysis throughput.
func fleetSession(cfg FleetConfig, i int) *trace.TraceBundle {
	app := fmt.Sprintf("fleet%04d", i%cfg.Apps)
	base := int64(1 + i)
	recs := make([]trace.Record, 0, 6)
	for p := 0; p < 3; p++ {
		key := trace.EventKey{Class: "Lfleet/Worker", Callback: fmt.Sprintf("cb%d", p)}
		recs = append(recs,
			trace.Record{TimestampMS: base + int64(p*10), Dir: trace.Enter, Key: key},
			trace.Record{TimestampMS: base + int64(p*10+4), Dir: trace.Exit, Key: key},
		)
	}
	return &trace.TraceBundle{
		Event: trace.EventTrace{
			AppID:   app,
			UserID:  fmt.Sprintf("user%d", i),
			Device:  "nexus6",
			TraceID: fmt.Sprintf("s%08d", i),
			Records: recs,
		},
		Util: trace.UtilizationTrace{
			AppID: app, PID: 100 + i%1000, PeriodMS: 500,
			Samples: []trace.UtilizationSample{
				{TimestampMS: base}, {TimestampMS: base + 10}, {TimestampMS: base + 20},
			},
		},
	}
}

// durQuantile returns the q-quantile (0..1) of sorted durations.
func durQuantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// RunFleet drives the fleet benchmark: per-shard SegStores behind one
// ingest listener, one serving layer fed by every shard's ingest hook,
// and FLEET_UPLOADERS concurrent binary clients uploading
// FLEET_SESSIONS synthetic sessions. It reports sustained QPS, ack-latency and
// report-staleness quantiles, and the group-commit fsync amortization.
func RunFleet(seed int64) (Result, error) {
	cfg := FleetConfigFromEnv()
	if cfg.Uploaders > cfg.Sessions {
		cfg.Uploaders = cfg.Sessions
	}

	dir, err := os.MkdirTemp("", "fleet-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// One segmented store per shard and one serving layer for the
	// fleet, exactly the sharded collectd topology.
	svc, err := serve.New(serve.Config{Analysis: core.DefaultConfig(), Debounce: fleetDebounce})
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	stores := make([]*collect.SegStore, cfg.Shards)
	defer func() {
		for _, st := range stores {
			if st != nil {
				st.Close()
			}
		}
	}()
	var storeErr error
	ss, err := collect.NewShardedServer("127.0.0.1:0", cfg.Shards, func(i int) []collect.ServerOption {
		store, err := collect.NewSegStore(fmt.Sprintf("%s/shard-%d", dir, i), seglog.Options{})
		if err != nil {
			storeErr = err
			return nil
		}
		stores[i] = store
		return []collect.ServerOption{
			collect.WithStore(store),
			collect.WithIngestHook(svc.Notify),
		}
	})
	if storeErr != nil {
		return nil, storeErr
	}
	if err != nil {
		return nil, err
	}
	defer ss.Close()

	// Staleness probe: sample the fleet's worst report age while the
	// uploaders run.
	var (
		stalenessMu sync.Mutex
		staleness   []time.Duration
		probeDone   = make(chan struct{})
		probeStop   = make(chan struct{})
	)
	go func() {
		defer close(probeDone)
		tick := time.NewTicker(fleetSamplePeriod)
		defer tick.Stop()
		for {
			select {
			case <-probeStop:
				return
			case <-tick.C:
				age := svc.OldestDirtyAge()
				stalenessMu.Lock()
				staleness = append(staleness, age)
				stalenessMu.Unlock()
			}
		}
	}()

	// The uploader fleet: each goroutine is one phone's binary client,
	// uploading its share of sessions in fleetChunk-sized batches and
	// recording every bundle's send→ack round trip.
	perUploader := (cfg.Sessions + cfg.Uploaders - 1) / cfg.Uploaders
	ackSamples := make([][]time.Duration, cfg.Uploaders)
	uploadErrs := make([]error, cfg.Uploaders)
	start := time.Now()
	var wg sync.WaitGroup
	for u := 0; u < cfg.Uploaders; u++ {
		lo := u * perUploader
		hi := lo + perUploader
		if hi > cfg.Sessions {
			hi = cfg.Sessions
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(u, lo, hi int) {
			defer wg.Done()
			client := collect.NewClient(ss.Addr(),
				collect.WithJitterSeed(seed+int64(u)),
				collect.WithAckObserver(func(d time.Duration) {
					ackSamples[u] = append(ackSamples[u], d)
				}))
			state := collect.PhoneState{Charging: true, OnWiFi: true}
			for at := lo; at < hi; at += fleetChunk {
				end := at + fleetChunk
				if end > hi {
					end = hi
				}
				chunk := make([]*trace.TraceBundle, 0, end-at)
				for i := at; i < end; i++ {
					chunk = append(chunk, fleetSession(cfg, i))
				}
				if err := client.Upload(state, chunk); err != nil {
					uploadErrs[u] = err
					return
				}
			}
		}(u, lo, hi)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(probeStop)
	<-probeDone
	for u, err := range uploadErrs {
		if err != nil {
			return nil, fmt.Errorf("experiments: fleet uploader %d: %w", u, err)
		}
	}

	// Drain the serving layer so AnalyzedApps reflects the whole fleet.
	svc.Flush()

	stats := ss.Stats()
	if stats.Accepted != int64(cfg.Sessions) {
		return nil, fmt.Errorf("experiments: fleet accepted %d of %d sessions", stats.Accepted, cfg.Sessions)
	}

	res := &FleetResult{
		Config:      cfg,
		Elapsed:     elapsed,
		QPS:         float64(stats.Accepted) / elapsed.Seconds(),
		Accepted:    stats.Accepted,
		Duplicated:  stats.Duplicated,
		Quarantined: stats.Quarantined,
		WireBytes:   stats.BytesIngested,
	}
	for _, st := range stores {
		ls := st.Log().Stats()
		res.Fsyncs += ls.Commits
		res.Appends += ls.Appends
	}
	if res.Accepted > 0 {
		res.FsyncsPerBundle = float64(res.Fsyncs) / float64(res.Accepted)
	}

	var acks []time.Duration
	for _, s := range ackSamples {
		acks = append(acks, s...)
	}
	sort.Slice(acks, func(i, j int) bool { return acks[i] < acks[j] })
	res.AckP50 = durQuantile(acks, 0.50)
	res.AckP99 = durQuantile(acks, 0.99)

	stalenessMu.Lock()
	sort.Slice(staleness, func(i, j int) bool { return staleness[i] < staleness[j] })
	res.StalenessP50 = durQuantile(staleness, 0.50)
	res.StalenessP99 = durQuantile(staleness, 0.99)
	stalenessMu.Unlock()

	res.AnalyzedApps = len(svc.Statuses())
	return res, nil
}
