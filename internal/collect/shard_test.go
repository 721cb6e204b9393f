package collect

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/collect/seglog"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/trace/binenc"
)

func TestShardOf(t *testing.T) {
	apps := []string{"k9mail", "opengps", "wallabag", "tinfoil", "a/b", "a_b", ""}
	for _, app := range apps {
		if got := ShardOf(app, 1); got != 0 {
			t.Fatalf("ShardOf(%q, 1) = %d", app, got)
		}
		for _, n := range []int{2, 3, 7} {
			got := ShardOf(app, n)
			if got < 0 || got >= n {
				t.Fatalf("ShardOf(%q, %d) = %d out of range", app, n, got)
			}
			if again := ShardOf(app, n); again != got {
				t.Fatalf("ShardOf(%q, %d) unstable: %d then %d", app, n, got, again)
			}
		}
	}
	// The test apps must not all hash to one shard of 3, or the routing
	// tests below would not exercise cross-shard traffic.
	seen := map[int]bool{}
	for _, app := range []string{"k9mail", "opengps", "wallabag", "tinfoil"} {
		seen[ShardOf(app, 3)] = true
	}
	if len(seen) < 2 {
		t.Fatalf("test apps all landed on one of 3 shards: %v", seen)
	}
}

// startSharded runs a server with n shards, each with its own
// SegStore in a subdirectory of dir. The returned shutdown closes the
// fleet and its stores; it is idempotent and also runs at cleanup.
func startSharded(t *testing.T, dir string, n int, extra func(shard int) []ServerOption) (*Server, func()) {
	t.Helper()
	stores := make([]*SegStore, n)
	ss, err := NewShardedServer("127.0.0.1:0", n, func(i int) []ServerOption {
		store, err := NewSegStore(fmt.Sprintf("%s/shard-%d", dir, i), seglog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = store
		opts := []ServerOption{WithStore(store)}
		if extra != nil {
			opts = append(opts, extra(i)...)
		}
		return opts
	})
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	shutdown := func() {
		once.Do(func() {
			ss.Close()
			for _, st := range stores {
				if st != nil {
					st.Close()
				}
			}
		})
	}
	t.Cleanup(shutdown)
	return ss, shutdown
}

// TestShardedRoutesByApp: every app's bundles land on exactly the shard
// ShardOf names, across separate client connections, and the aggregate
// views line up.
func TestShardedRoutesByApp(t *testing.T) {
	ss, _ := startSharded(t, t.TempDir(), 3, nil)
	apps := []string{"k9mail", "opengps", "wallabag", "tinfoil"}
	var first, second []*trace.TraceBundle
	for i, app := range apps {
		first = append(first, bundle(app, fmt.Sprintf("ut%d", i), "t1"))
		second = append(second, bundle(app, fmt.Sprintf("ub%d", i), "t2"))
	}
	if err := NewClient(ss.Addr()).Upload(charging(), first); err != nil {
		t.Fatal(err)
	}
	if err := NewClient(ss.Addr()).Upload(charging(), second); err != nil {
		t.Fatal(err)
	}
	for _, app := range apps {
		owner := ShardOf(app, 3)
		for i := range 3 {
			got := len(ss.shards[i].bundles(app))
			want := 0
			if i == owner {
				want = 2
			}
			if got != want {
				t.Errorf("app %s on shard %d: %d bundles, want %d", app, i, got, want)
			}
		}
		if got := len(ss.Bundles(app)); got != 2 {
			t.Errorf("aggregate Bundles(%s) = %d, want 2", app, got)
		}
	}
	if got := ss.Count(); got != 8 {
		t.Errorf("Count() = %d, want 8", got)
	}
	if got := ss.Apps(); len(got) != 4 {
		t.Errorf("Apps() = %v, want the 4 uploaded", got)
	}
	if st := ss.Stats(); st.Accepted != 8 || st.Quarantined != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestShardedGarbageQuarantined: an invalid bundle quarantines on the
// shard that owns its app; a frame with no readable app ID routes
// deterministically to shard 0 and quarantines there. Either way the
// fleet-wide reconciliation invariant holds.
func TestShardedGarbageQuarantined(t *testing.T) {
	ss, _ := startSharded(t, t.TempDir(), 3, nil)
	// One attempt: a rejection must not be retried into N quarantine
	// entries for this count-exact test.
	c := NewClient(ss.Addr(), WithRetry(1, time.Millisecond, time.Millisecond))
	if err := c.Upload(charging(), []*trace.TraceBundle{bundle("k9mail", "u", "t1")}); err != nil {
		t.Fatal(err)
	}
	// Structurally broken event trace: routes by its appId, rejects on
	// the owning shard's validator.
	broken := bundle("opengps", "u", "t2")
	broken.Event.Records = broken.Event.Records[:1] // unbalanced
	var rej *RejectedError
	if err := c.Upload(charging(), []*trace.TraceBundle{broken}); !errors.As(err, &rej) {
		t.Fatalf("broken bundle: err = %v, want *RejectedError", err)
	}
	if qc := ss.shards[ShardOf("opengps", 3)].quarantineCount(); qc != 1 {
		t.Fatalf("owning shard quarantined %d, want 1", qc)
	}
	// A garbage frame with no app ID at all: the dispatch sends it to
	// shard 0.
	before := ss.shards[0].quarantineCount()
	conn := dialAddr(t, ss.Addr())
	r := hello(t, conn)
	sendFrame(t, conn, []byte("not a bundle at all"))
	ack, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(ack, ackErrPrefix) {
		t.Fatalf("garbage frame acked %q, want ERR", ack)
	}
	if qc := ss.shards[0].quarantineCount(); qc != before+1 {
		t.Fatalf("shard 0 quarantined %d, want %d (the unrouted frame)", qc, before+1)
	}
	st := ss.Stats()
	if st.Accepted != 1 || st.Quarantined != 2 {
		t.Fatalf("stats = %+v, want 1 accepted + 2 quarantined", st)
	}
}

// TestPerConnLimitsAtAnyShardCount: MaxBundlesPerConn and
// MaxBadLinesPerConn bound one client connection, not each shard's
// share of it, so an upload spread over several shards is cut at the
// same count with 1 or 3 shards, and counts as one connection.
func TestPerConnLimitsAtAnyShardCount(t *testing.T) {
	apps := []string{"k9mail", "opengps", "wallabag", "tinfoil"}
	var good, bad [][]byte
	for i := 0; i < 8; i++ {
		app := apps[i%len(apps)]
		good = append(good, wirePayload(t, bundle(app, fmt.Sprintf("u%d", i), "t1")))
		broken := bundle(app, fmt.Sprintf("b%d", i), "t1")
		broken.Event.Records = broken.Event.Records[:1] // unbalanced
		bad = append(bad, wirePayload(t, broken))
	}
	// lockstep sends payloads over one connection, reading each ack
	// before the next frame, and returns the acks read before the
	// server closed the connection.
	lockstep := func(t *testing.T, addr string, payloads [][]byte) []string {
		conn := dialAddr(t, addr)
		r := hello(t, conn)
		var acks []string
		for _, p := range payloads {
			if _, err := conn.Write(binenc.AppendFrame(nil, p)); err != nil {
				break
			}
			ack, err := r.ReadString('\n')
			if err != nil {
				break
			}
			acks = append(acks, ack)
		}
		return acks
	}
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			s, _ := startSharded(t, t.TempDir(), n, func(int) []ServerOption {
				return []ServerOption{WithLimits(Limits{MaxBundlesPerConn: 5, MaxBadLinesPerConn: 2})}
			})
			acks := lockstep(t, s.Addr(), good)
			if len(acks) != 6 || !strings.Contains(acks[5], "connection bundle limit (5)") {
				t.Fatalf("8 bundles on one connection got acks %q, want 5 OK then the bundle-limit ERR", acks)
			}
			for _, ack := range acks[:5] {
				if !strings.HasPrefix(ack, ackOK+" ") {
					t.Fatalf("acks %q, want 5 OK first", acks)
				}
			}
			acks = lockstep(t, s.Addr(), bad)
			if len(acks) != 3 {
				t.Fatalf("8 bad bundles on one connection got acks %q, want 3 ERR then the close", acks)
			}
			for _, ack := range acks {
				if !strings.HasPrefix(ack, ackErrPrefix) {
					t.Fatalf("acks %q, want only ERR", acks)
				}
			}
			if st := s.Stats(); st.Accepted != 5 || st.Quarantined != 3 || st.ConnsTotal != 2 {
				t.Fatalf("stats = %+v, want 5 accepted, 3 quarantined over 2 connections", st)
			}
		})
	}
}

// newTestService builds a serving layer that only analyzes on an
// explicit flush.
func newTestService(t *testing.T) *serve.Service {
	t.Helper()
	svc, err := serve.New(serve.Config{Analysis: core.DefaultConfig(), Debounce: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

// TestShardedExactlyOnceUnderFaults is the acceptance test: a faulty
// upload through a 3-shard server ingests exactly once per bundle,
// and the per-app reports from the sharded deployment are
// byte-identical to a single-shard run over the same upload set.
func TestShardedExactlyOnceUnderFaults(t *testing.T) {
	apps := []string{"k9mail", "opengps", "wallabag", "tinfoil"}
	var bundles []*trace.TraceBundle
	for i := 0; i < 40; i++ {
		bundles = append(bundles, bundle(apps[i%len(apps)], fmt.Sprintf("u%d", i), fmt.Sprintf("t%d", i)))
	}

	// Sharded run: 3 shards behind one listener, all feeding one serving
	// layer, faults on the wire.
	svc := newTestService(t)
	ss, _ := startSharded(t, t.TempDir(), 3, func(int) []ServerOption {
		return []ServerOption{WithIngestHook(svc.Notify)}
	})
	inj, err := faults.New(faults.Config{CorruptProb: 0.15, DuplicateProb: 0.2, DropProb: 0.1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(ss.Addr(), WithFaults(inj),
		WithRetry(60, time.Millisecond, 4*time.Millisecond), WithJitterSeed(2))
	if err := c.Upload(charging(), bundles); err != nil {
		t.Fatal(err)
	}
	if st := ss.Stats(); st.Accepted != 40 {
		t.Fatalf("sharded accepted = %d, want exactly 40 (%+v)", st.Accepted, st)
	}
	for _, app := range apps {
		if got := len(ss.Bundles(app)); got != 10 {
			t.Fatalf("app %s stored %d bundles, want 10", app, got)
		}
	}

	// Baseline: one unsharded server, clean wire, same upload set.
	baseSvc := newTestService(t)
	base := startServer(t, WithIngestHook(baseSvc.Notify))
	if err := NewClient(base.Addr()).Upload(charging(), bundles); err != nil {
		t.Fatal(err)
	}

	svc.Flush()
	baseSvc.Flush()
	for _, app := range apps {
		shardReport, _, ok := svc.AppReport(app)
		if !ok || shardReport == nil {
			t.Fatalf("no sharded report for %s", app)
		}
		baseReport, _, ok := baseSvc.AppReport(app)
		if !ok || baseReport == nil {
			t.Fatalf("no baseline report for %s", app)
		}
		got, err := json.Marshal(shardReport)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(baseReport)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("report for %s diverged between sharded and single-shard runs", app)
		}
	}
}

// TestShardedFeedsOneService: apps routed to different shards all land
// in the one serving layer, which lists them, flushes them together,
// exports the fleet gauge over all of them and streams their report
// events on one SSE endpoint.
func TestShardedFeedsOneService(t *testing.T) {
	apps := []string{"k9mail", "opengps", "wallabag", "tinfoil"}
	svc := newTestService(t)
	ss, _ := startSharded(t, t.TempDir(), 3, func(int) []ServerOption {
		return []ServerOption{WithIngestHook(svc.Notify)}
	})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// One flush publishes one event per app, so the watcher never blocks.
	events := make(chan serve.StreamEvent, len(apps))
	go func() {
		_ = serve.WatchEvents(ctx, nil, ts.URL, "", 0, func(ev serve.StreamEvent) error {
			events <- ev
			return nil
		})
	}()
	// A fresh SSE client gets no replay, so wait until it is subscribed
	// before anything is published.
	for deadline := time.Now().Add(5 * time.Second); ; {
		if n, _ := obs.Default.Value("serve_stream_clients"); n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("SSE client never subscribed")
		}
		time.Sleep(5 * time.Millisecond)
	}

	var bundles []*trace.TraceBundle
	for i, app := range apps {
		bundles = append(bundles, bundle(app, fmt.Sprintf("u%d", i), "t1"))
	}
	if err := NewClient(ss.Addr()).Upload(charging(), bundles); err != nil {
		t.Fatal(err)
	}
	if svc.OldestDirtyAge() <= 0 {
		t.Fatal("uploads through the sharded server left the service clean")
	}
	resp, err := http.Post(ts.URL+"/analysis/flush", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flush status %d", resp.StatusCode)
	}
	if age := svc.OldestDirtyAge(); age != 0 {
		t.Fatalf("staleness %v after flush, want 0", age)
	}

	statuses := svc.Statuses()
	if len(statuses) != len(apps) {
		t.Fatalf("Statuses() = %+v, want the %d uploaded apps", statuses, len(apps))
	}
	for _, st := range statuses {
		if st.Version != 1 || st.Traces != 1 {
			t.Errorf("app %s not analyzed once over its bundle: %+v", st.App, st)
		}
	}
	if v, _ := obs.Default.Value("serve_apps_tracked"); v != float64(len(apps)) {
		t.Errorf("serve_apps_tracked = %v, want %d", v, len(apps))
	}

	shardsSeen := map[int]bool{}
	appsSeen := map[string]bool{}
	for len(appsSeen) < len(apps) {
		select {
		case ev := <-events:
			appsSeen[ev.Event.App] = true
			shardsSeen[ShardOf(ev.Event.App, 3)] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("report events only for %v", appsSeen)
		}
	}
	if len(shardsSeen) < 2 {
		t.Fatalf("report events came from shards %v, want at least two", shardsSeen)
	}
}

// TestShardedQuarantineGauges: rejects on two different shards both
// show in the process-wide quarantine gauges, which sum the shards.
func TestShardedQuarantineGauges(t *testing.T) {
	ss, _ := startSharded(t, t.TempDir(), 3, nil)
	apps := []string{"k9mail", "opengps", "wallabag", "tinfoil"}
	owners := map[int]bool{}
	c := NewClient(ss.Addr(), WithRetry(1, time.Millisecond, time.Millisecond))
	for i, app := range apps {
		if owners[ShardOf(app, 3)] {
			continue
		}
		owners[ShardOf(app, 3)] = true
		broken := bundle(app, "u", fmt.Sprintf("t%d", i))
		broken.Event.Records = broken.Event.Records[:1] // unbalanced
		var rej *RejectedError
		if err := c.Upload(charging(), []*trace.TraceBundle{broken}); !errors.As(err, &rej) {
			t.Fatalf("broken %s bundle: err = %v, want *RejectedError", app, err)
		}
	}
	if len(owners) < 2 {
		t.Fatalf("rejects landed on shards %v, want at least two", owners)
	}
	want := float64(len(owners))
	if got := float64(ss.QuarantineCount()); got != want {
		t.Fatalf("QuarantineCount() = %v, want %v", got, want)
	}
	for _, name := range []string{"collect_quarantine_count", "collect_quarantine_kept"} {
		if v, _ := obs.Default.Value(name); v != want {
			t.Errorf("%s = %v, want the fleet total %v", name, v, want)
		}
	}
}

// TestShardedRestartResumesDedup: shards reload their own stores, so a
// full re-upload through a restarted sharded server is all duplicates.
func TestShardedRestartResumesDedup(t *testing.T) {
	dir := t.TempDir()
	var bundles []*trace.TraceBundle
	apps := []string{"k9mail", "opengps", "wallabag"}
	for i := 0; i < 9; i++ {
		bundles = append(bundles, bundle(apps[i%3], fmt.Sprintf("u%d", i), "t1"))
	}

	ss, shutdown := startSharded(t, dir, 3, nil)
	if err := NewClient(ss.Addr()).Upload(charging(), bundles); err != nil {
		t.Fatal(err)
	}
	shutdown()

	ss2, _ := startSharded(t, dir, 3, nil)
	if got := ss2.Count(); got != 9 {
		t.Fatalf("restarted fleet reloaded %d bundles, want 9", got)
	}
	if err := NewClient(ss2.Addr()).Upload(charging(), bundles); err != nil {
		t.Fatal(err)
	}
	if st := ss2.Stats(); st.Accepted != 0 || st.Duplicated != 9 {
		t.Fatalf("stats after re-upload = %+v, want 9 duplicated", st)
	}
}
