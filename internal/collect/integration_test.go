package collect

import (
	"bytes"
	"encoding/json"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/collect/seglog"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestFullPipelineOverNetwork exercises the deployed topology end to
// end: phones generate traces, upload them over TCP under the
// charging/WiFi policy, and the backend diagnoses the server's stored
// corpus. This is the system-level integration test.
func TestFullPipelineOverNetwork(t *testing.T) {
	srv := startServer(t)

	app, err := apps.ByAppID("opengps")
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.DefaultConfig(app, 77)
	cfg.Users = 15
	cfg.ImpactedFraction = 0.2
	cfg.Scrub = false // clients scrub on upload
	corpus, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	client := NewClient(srv.Addr())
	if err := client.Upload(PhoneState{Charging: true, OnWiFi: true}, corpus.Bundles); err != nil {
		t.Fatal(err)
	}
	stored := srv.Bundles(app.AppID)
	if len(stored) != 15 {
		t.Fatalf("server stored %d bundles", len(stored))
	}

	acfg := core.DefaultConfig()
	acfg.DeveloperImpactPercent = corpus.ImpactedPercent
	analyzer, err := core.NewAnalyzer(acfg)
	if err != nil {
		t.Fatal(err)
	}
	report, err := analyzer.Analyze(stored)
	if err != nil {
		t.Fatal(err)
	}
	if report.ImpactedTraces == 0 {
		t.Fatal("no manifestation points detected over the network path")
	}
	// The scrubbed user IDs must still let Step 5 count distinct users.
	if len(report.Impacted) == 0 {
		t.Fatal("no events reported")
	}
	cr, err := core.ComputeCodeReduction(report, app.Package(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Reduction < 0.8 {
		t.Errorf("network-path code reduction = %.2f", cr.Reduction)
	}
}

// TestSoakFaultInjectedConvergence is the ingestion soak test: N
// concurrent clients push a corpus through a fault injector that
// corrupts, truncates, duplicates and drops well over 10% of the wire
// traffic, and the system must converge to the exact fault-free state —
// every bundle stored exactly once, every mangled frame quarantined, and
// the analysis report byte-identical to the one computed without any
// faults. The injectors and jitter RNGs are seeded, so the fault
// schedule (and therefore the test) is deterministic.
func TestSoakFaultInjectedConvergence(t *testing.T) {
	const (
		soakClients    = 6
		usersPerClient = 5
	)
	app, err := apps.ByAppID("opengps")
	if err != nil {
		t.Fatal(err)
	}
	wcfg := workload.DefaultConfig(app, 41)
	wcfg.Users = soakClients * usersPerClient
	wcfg.ImpactedFraction = 0.25
	wcfg.Scrub = false // clients scrub on upload
	corpus, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}

	// Fault-free golden: what the server must hold after the chaos. The
	// client scrubs and stamps before sending, and the server's re-scrub
	// is idempotent, so the stored bundles must equal this exactly.
	golden := make([]*trace.TraceBundle, len(corpus.Bundles))
	for i, b := range corpus.Bundles {
		sb := trace.ScrubBundle(b)
		sb.Key = trace.ContentKey(sb)
		golden[i] = sb
	}
	goldenReport := soakReport(t, golden, corpus.ImpactedPercent)

	dir := t.TempDir()
	store, err := NewSegStore(dir, seglog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer("127.0.0.1:0", WithStore(store))
	if err != nil {
		t.Fatal(err)
	}

	// Well over the acceptance floor: 12% corrupt, 12% dropped
	// connections, plus truncation, duplication, delays and batch
	// reordering.
	fcfg := faults.Config{
		CorruptProb:   0.12,
		TruncateProb:  0.10,
		DuplicateProb: 0.10,
		DropProb:      0.12,
		DelayProb:     0.05,
		MaxDelay:      time.Millisecond,
		ReorderProb:   0.5,
	}
	injectors := make([]*faults.Injector, soakClients)
	uploadErrs := make([]error, soakClients)
	var wg sync.WaitGroup
	for ci := 0; ci < soakClients; ci++ {
		// Widely spaced seeds: adjacent math/rand seeds produce
		// correlated early draws, which skews the aggregate schedule.
		fcfg.Seed = int64(ci+1) * 2654435761
		in, err := faults.New(fcfg)
		if err != nil {
			t.Fatal(err)
		}
		injectors[ci] = in
		chunk := corpus.Bundles[ci*usersPerClient : (ci+1)*usersPerClient]
		wg.Add(1)
		go func(ci int, in *faults.Injector, chunk []*trace.TraceBundle) {
			defer wg.Done()
			client := NewClient(srv.Addr(),
				WithFaults(in),
				WithJitterSeed(int64(ci)),
				WithRetry(60, time.Millisecond, 4*time.Millisecond),
				WithTimeout(500*time.Millisecond))
			uploadErrs[ci] = client.Upload(PhoneState{Charging: true, OnWiFi: true}, chunk)
		}(ci, in, chunk)
	}
	wg.Wait()
	for ci, err := range uploadErrs {
		if err != nil {
			t.Fatalf("client %d did not converge: %v", ci, err)
		}
	}

	var total faults.Stats
	for _, in := range injectors {
		s := in.Stats()
		total.Lines += s.Lines
		total.Corrupted += s.Corrupted
		total.Truncated += s.Truncated
		total.Duplicated += s.Duplicated
		total.Dropped += s.Dropped
	}
	t.Logf("injected faults: %s", total)
	if total.Corrupted == 0 || total.Truncated == 0 || total.Duplicated == 0 || total.Dropped == 0 {
		t.Fatalf("fault schedule did not exercise every kind: %s", total)
	}

	// Exactly-once storage despite duplicates and retries.
	if srv.Count() != len(corpus.Bundles) {
		t.Fatalf("server stores %d bundles, want exactly %d", srv.Count(), len(corpus.Bundles))
	}
	// Every mangled frame was quarantined, never stored.
	qcount := srv.QuarantineCount()
	if qcount < total.Corrupted+total.Truncated {
		t.Errorf("quarantined %d frames, want at least %d (corrupted %d + truncated %d)",
			qcount, total.Corrupted+total.Truncated, total.Corrupted, total.Truncated)
	}

	// The diagnosis over the survivors is byte-identical to the
	// fault-free analysis.
	stored := srv.Bundles(app.AppID)
	if got := soakReport(t, stored, corpus.ImpactedPercent); !bytes.Equal(got, goldenReport) {
		t.Errorf("analysis over fault-injected corpus differs from fault-free golden (%d vs %d bytes)",
			len(got), len(goldenReport))
	}

	// A restart over the same store sees the identical corpus and the
	// full quarantine.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	store2, err := NewSegStore(dir, seglog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	srv2, err := NewServer("127.0.0.1:0", WithStore(store2))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if srv2.Count() != len(corpus.Bundles) {
		t.Fatalf("restarted server stores %d bundles, want %d", srv2.Count(), len(corpus.Bundles))
	}
	if got := soakReport(t, srv2.Bundles(app.AppID), corpus.ImpactedPercent); !bytes.Equal(got, goldenReport) {
		t.Errorf("analysis after restart differs from fault-free golden")
	}
	entries, err := store2.LoadQuarantine()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != qcount {
		t.Errorf("durable quarantine holds %d entries, server counted %d", len(entries), qcount)
	}
}

// soakReport renders the analysis of a bundle set as indented JSON,
// after sorting by (user, trace) so arrival order — scrambled by
// concurrency, reordering and retries — cannot leak into the bytes.
func soakReport(t *testing.T, bundles []*trace.TraceBundle, impactedPct float64) []byte {
	t.Helper()
	sorted := make([]*trace.TraceBundle, len(bundles))
	copy(sorted, bundles)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Event.UserID != sorted[j].Event.UserID {
			return sorted[i].Event.UserID < sorted[j].Event.UserID
		}
		return sorted[i].Event.TraceID < sorted[j].Event.TraceID
	})
	cfg := core.DefaultConfig()
	cfg.DeveloperImpactPercent = impactedPct
	analyzer, err := core.NewAnalyzer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	report, err := analyzer.Analyze(sorted)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}
