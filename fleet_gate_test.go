package repro

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/collect"
	"repro/internal/collect/seglog"
	"repro/internal/experiments"
	"repro/internal/trace"
)

// The fleet gate pins the fleet-scale ingest path's two headline
// properties in CI:
//
//   - Group commit amortizes durability: with 64 concurrent uploaders
//     hammering one SegStore-backed server, fsyncs-per-bundle must stay
//     under 0.25 and throughput at least 5x the per-bundle-Sync
//     baseline (syncPerBundleStore).
//   - The whole sharded fleet (one listener → shards → group-commit log →
//     one analysis service) sustains its floors end to end: every session
//     accepted exactly once, QPS above floor, p99 report staleness
//     bounded.
//
// Like the other expensive gates it is opt-in: CI's fleet-gate job runs
// FLEET_GATE=1 FLEET_SESSIONS=10000 FLEET_APPS=500 go test -run TestFleetGate .

// fleetGateSession synthesizes one tiny upload session for the ingest
// microbenchmarks: the smallest bundle the validator accepts, so the
// measurement weighs the ingest path (framing, dedup, group commit),
// not record processing.
func fleetGateSession(i, apps int) *trace.TraceBundle {
	app := fmt.Sprintf("fleet%04d", i%apps)
	base := int64(1 + i)
	key := trace.EventKey{Class: "Lfleet/Worker", Callback: "cb"}
	return &trace.TraceBundle{
		Event: trace.EventTrace{
			AppID: app, UserID: fmt.Sprintf("user%d", i), Device: "nexus6",
			TraceID: fmt.Sprintf("s%08d", i),
			Records: []trace.Record{
				{TimestampMS: base, Dir: trace.Enter, Key: key},
				{TimestampMS: base + 4, Dir: trace.Exit, Key: key},
			},
		},
		Util: trace.UtilizationTrace{
			AppID: app, PID: 42, PeriodMS: 500,
			Samples: []trace.UtilizationSample{{TimestampMS: base}},
		},
	}
}

// appender is the one Store method the ingest microbenchmark drives.
type appender interface {
	Append(b *trace.TraceBundle) error
}

// syncPerBundleStore is the per-bundle-fsync baseline the group-commit
// floor is measured against: one mutex, and per Append one JSON line
// encoded in one write to the app's file, then one Sync — durability
// capped at one bundle per fsync latency.
type syncPerBundleStore struct {
	dir   string
	mu    sync.Mutex
	files map[string]*os.File
}

func (s *syncPerBundleStore) Append(b *trace.TraceBundle) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.files[b.Event.AppID]
	if !ok {
		var err error
		f, err = os.OpenFile(filepath.Join(s.dir, b.Event.AppID+".jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		s.files[b.Event.AppID] = f
	}
	if err := trace.EncodeBundle(f, b); err != nil {
		return err
	}
	return f.Sync()
}

func (s *syncPerBundleStore) close() {
	for _, f := range s.files {
		f.Close()
	}
}

// fleetStoreRun drives Store.Append directly from `uploaders`
// concurrent appenders — the server's ingest handlers do exactly this
// once a bundle is validated — and returns the wall time to persist
// every bundle. Working at the store layer isolates the durability
// strategy under test (group commit vs per-bundle Sync) from wire and
// codec CPU, which on a small runner would otherwise cap the arrival
// rate below the fsync rate and hide the batching.
func fleetStoreRun(tb testing.TB, store appender, uploaders int, bundles []*trace.TraceBundle) time.Duration {
	tb.Helper()
	per := (len(bundles) + uploaders - 1) / uploaders
	errs := make([]error, uploaders)
	var wg sync.WaitGroup
	start := time.Now()
	for u := 0; u < uploaders; u++ {
		lo, hi := u*per, (u+1)*per
		if hi > len(bundles) {
			hi = len(bundles)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(u, lo, hi int) {
			defer wg.Done()
			for _, b := range bundles[lo:hi] {
				if err := store.Append(b); err != nil {
					errs[u] = err
					return
				}
			}
		}(u, lo, hi)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for u, err := range errs {
		if err != nil {
			tb.Fatalf("appender %d: %v", u, err)
		}
	}
	return elapsed
}

// fleetIngestUploaders and fleetIngestSessions shape the group-commit
// microbenchmark (shared by the gate and the BENCH_sweep entries).
const (
	fleetIngestUploaders = 64
	fleetIngestSessions  = 12800
)

// ingestSweepEntries measures the group-commit SegStore against the
// per-bundle-Sync baseline under the standard 64-uploader load and
// returns the two BENCH_sweep entries ("ingest/group-commit" and
// "ingest/sync-per-bundle").
func ingestSweepEntries(tb testing.TB) []sweepEntry {
	tb.Helper()
	bundles := make([]*trace.TraceBundle, fleetIngestSessions)
	for i := range bundles {
		b := fleetGateSession(i, 500)
		b.Key = trace.ContentKey(b)
		bundles[i] = b
	}

	seg, err := collect.NewSegStore(tb.TempDir(), seglog.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	defer seg.Close()
	segElapsed := fleetStoreRun(tb, seg, fleetIngestUploaders, bundles)
	ls := seg.Log().Stats()

	fs := &syncPerBundleStore{dir: tb.TempDir(), files: make(map[string]*os.File)}
	defer fs.close()
	fsElapsed := fleetStoreRun(tb, fs, fleetIngestUploaders, bundles)

	segEntry := sweepEntry{
		Name:            "ingest/group-commit",
		Workers:         fleetIngestUploaders,
		Iterations:      fleetIngestSessions,
		NsPerOp:         segElapsed.Nanoseconds() / int64(fleetIngestSessions),
		QPS:             float64(fleetIngestSessions) / segElapsed.Seconds(),
		FsyncsPerBundle: float64(ls.Commits) / float64(ls.Appends),
	}
	syncEntry := sweepEntry{
		Name:       "ingest/sync-per-bundle",
		Workers:    fleetIngestUploaders,
		Iterations: fleetIngestSessions,
		NsPerOp:    fsElapsed.Nanoseconds() / int64(fleetIngestSessions),
		QPS:        float64(fleetIngestSessions) / fsElapsed.Seconds(),
		// One fsync per accepted bundle by construction.
		FsyncsPerBundle: 1,
	}
	if syncEntry.NsPerOp > 0 {
		segEntry.Speedup = float64(syncEntry.NsPerOp) / float64(segEntry.NsPerOp)
	}
	return []sweepEntry{segEntry, syncEntry}
}

// fleetSweepBlock runs the fleet experiment (FLEET_* env overrides
// apply) and converts the result into the BENCH_sweep fleet block.
func fleetSweepBlock(tb testing.TB, seed int64) (*fleetSweep, *experiments.FleetResult) {
	tb.Helper()
	res, err := experiments.RunFleet(seed)
	if err != nil {
		tb.Fatal(err)
	}
	fr := res.(*experiments.FleetResult)
	return &fleetSweep{
		Sessions:        fr.Config.Sessions,
		Apps:            fr.Config.Apps,
		Shards:          fr.Config.Shards,
		Uploaders:       fr.Config.Uploaders,
		ElapsedNs:       fr.Elapsed.Nanoseconds(),
		QPS:             fr.QPS,
		AckP50Ns:        fr.AckP50.Nanoseconds(),
		AckP99Ns:        fr.AckP99.Nanoseconds(),
		FsyncsPerBundle: fr.FsyncsPerBundle,
		StalenessP50Ns:  fr.StalenessP50.Nanoseconds(),
		StalenessP99Ns:  fr.StalenessP99.Nanoseconds(),
		AnalyzedApps:    fr.AnalyzedApps,
	}, fr
}

// TestFleetGate enforces the fleet-scale ingest floors. Opt-in via
// FLEET_GATE=1 (CI's fleet-gate job); the run shape comes from the
// FLEET_* environment overrides, defaulting to the quick fleet shape.
func TestFleetGate(t *testing.T) {
	if os.Getenv("FLEET_GATE") == "" {
		t.Skip("set FLEET_GATE=1 to run the fleet-scale ingest gate")
	}

	// Group commit: durability amortization under concurrent uploaders.
	entries := ingestSweepEntries(t)
	seg, syncBase := entries[0], entries[1]
	t.Logf("group-commit ingest: %.0f qps, %.4f fsyncs/bundle (%.1fx the per-bundle-Sync store's %.0f qps)",
		seg.QPS, seg.FsyncsPerBundle, seg.Speedup, syncBase.QPS)
	if seg.FsyncsPerBundle >= 0.25 {
		t.Errorf("group commit fsyncs-per-bundle = %.4f, want < 0.25", seg.FsyncsPerBundle)
	}
	if seg.Speedup < 5 {
		t.Errorf("group-commit QPS is %.2fx the per-bundle-Sync baseline, want >= 5x", seg.Speedup)
	}

	// Whole-fleet floors: sharded ingest feeding one analysis service.
	block, fr := fleetSweepBlock(t, benchSeed)
	t.Log(fr.Render())
	if fr.Accepted != int64(fr.Config.Sessions) || fr.Duplicated != 0 || fr.Quarantined != 0 {
		t.Errorf("fleet ingest not exactly-once: %d accepted / %d dup / %d quarantined of %d sessions",
			fr.Accepted, fr.Duplicated, fr.Quarantined, fr.Config.Sessions)
	}
	// Floors are deliberately loose: CI runners are slow and shared. A
	// healthy run on one modern core sustains >1000 sessions/s.
	if block.QPS < 250 {
		t.Errorf("fleet QPS = %.0f, want >= 250", block.QPS)
	}
	if p99 := time.Duration(block.StalenessP99Ns); p99 > 30*time.Second {
		t.Errorf("fleet p99 report staleness = %v, want <= 30s", p99)
	}
	if block.AnalyzedApps != fr.Config.Apps {
		t.Errorf("analyzed %d of %d apps after final drain", block.AnalyzedApps, fr.Config.Apps)
	}
}
