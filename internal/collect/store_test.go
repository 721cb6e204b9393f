package collect

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/collect/seglog"
	"repro/internal/trace"
	"repro/internal/trace/binenc"
)

func TestSegStoreAppendAndLoad(t *testing.T) {
	dir := t.TempDir()
	store, err := NewSegStore(dir, seglog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range []*trace.TraceBundle{
		bundle("k9mail", "u1", "t1"),
		bundle("k9mail", "u2", "t2"),
		bundle("opengps", "u1", "t1"),
	} {
		b.Key = trace.ContentKey(b)
		if err := store.Append(b); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := NewSegStore(dir, seglog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	loaded, skipped, err := reopened.Load()
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Errorf("skipped = %d records on a clean store", skipped)
	}
	if len(loaded["k9mail"]) != 2 || len(loaded["opengps"]) != 1 {
		t.Errorf("loaded = %d k9, %d gps", len(loaded["k9mail"]), len(loaded["opengps"]))
	}
}

// TestUnkeyedPersistedBundleReloadsKeyed: a bundle a log holds without
// a content key reloads stamped with trace.ContentKey, so a keyed
// re-upload of the same content is a duplicate of it.
func TestUnkeyedPersistedBundleReloadsKeyed(t *testing.T) {
	dir := t.TempDir()
	legacy := trace.ScrubBundle(bundle("k9mail", "u1", "t1"))
	payload, err := binenc.EncodeBundle(nil, legacy)
	if err != nil {
		t.Fatal(err)
	}
	l, err := seglog.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ev := legacy.Event
	if err := l.AppendBundle(ev.AppID+"/"+ev.UserID+"/"+ev.TraceID, payload); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	store, err := NewSegStore(dir, seglog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() }) // after the server's own cleanup
	srv := startServer(t, WithStore(store))
	got := srv.Bundles("k9mail")
	if len(got) != 1 || got[0].Key != trace.ContentKey(legacy) {
		t.Fatalf("reloaded %d bundles, want one keyed %s: %+v", len(got), trace.ContentKey(legacy), got)
	}
	if err := NewClient(srv.Addr()).Upload(charging(), []*trace.TraceBundle{bundle("k9mail", "u1", "t1")}); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Duplicated != 1 || st.Accepted != 0 {
		t.Fatalf("stats = %+v, want the re-upload counted as a duplicate", st)
	}
}

func TestServerSurvivesRestartWithStore(t *testing.T) {
	dir := t.TempDir()
	store, err := NewSegStore(dir, seglog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer("127.0.0.1:0", WithStore(store))
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(srv.Addr())
	st := PhoneState{Charging: true, OnWiFi: true}
	if err := c.Upload(st, []*trace.TraceBundle{
		bundle("k9mail", "u1", "t1"), bundle("k9mail", "u2", "t2"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh server over the same directory sees the old
	// bundles and deduplicates re-uploads against them.
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
	if srv2.Count() != 2 {
		t.Fatalf("restarted server holds %d bundles, want 2", srv2.Count())
	}
	c2 := NewClient(srv2.Addr())
	if err := c2.Upload(st, []*trace.TraceBundle{
		bundle("k9mail", "u1", "t1"), // duplicate of a persisted bundle
		bundle("k9mail", "u3", "t3"), // new
	}); err != nil {
		t.Fatal(err)
	}
	if srv2.Count() != 3 {
		t.Errorf("after dedup + new upload: %d bundles, want 3", srv2.Count())
	}
	// And the new bundle was persisted too.
	loaded, _, err := store2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded["k9mail"]) != 3 {
		t.Errorf("persisted = %d, want 3", len(loaded["k9mail"]))
	}
}

func TestStreamHelpersRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	in := []*trace.TraceBundle{bundle("a", "u1", "t1"), bundle("a", "u2", "t2")}
	if err := trace.WriteBundles(f, in); err != nil {
		t.Fatal(err)
	}
	f.Close()
	g, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	out, err := trace.ReadBundles(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].Event.UserID != "u1" || out[1].Event.TraceID != "t2" {
		t.Errorf("round trip = %+v", out)
	}
}
