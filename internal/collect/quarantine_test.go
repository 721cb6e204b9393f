package collect

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/collect/seglog"
	"repro/internal/trace"
	"repro/internal/trace/binenc"
)

// wirePayload serializes a bundle as the client would put it in a
// frame (scrubbed, key-stamped, binenc-encoded).
func wirePayload(t *testing.T, b *trace.TraceBundle) []byte {
	t.Helper()
	sb := trace.ScrubBundle(b)
	sb.Key = trace.ContentKey(sb)
	payload, err := binenc.EncodeBundle(nil, sb)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

func TestQuarantineKeepsRejectedLines(t *testing.T) {
	s := startServer(t)
	conn := dialRaw(t, s)
	r := hello(t, conn)

	garbage := "definitely not a bundle"
	sendFrame(t, conn, []byte(garbage))
	ack, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(ack, "ERR ? ") {
		t.Errorf("undecodable frame acked %q, want ERR with unknown key", ack)
	}
	if s.QuarantineCount() != 1 {
		t.Fatalf("quarantine count = %d, want 1", s.QuarantineCount())
	}
	entries := s.Quarantine()
	if len(entries) != 1 {
		t.Fatalf("quarantine holds %d entries, want 1", len(entries))
	}
	if string(entries[0].Line) != garbage {
		t.Errorf("quarantined payload = %q, want the offending bytes", entries[0].Line)
	}
	if !strings.Contains(entries[0].Reason, "decode") {
		t.Errorf("reason = %q, want a decode error", entries[0].Reason)
	}
	if s.Count() != 0 {
		t.Error("rejected frame reached the store")
	}
}

func TestQuarantineOnIntegrityMismatch(t *testing.T) {
	s := startServer(t)
	conn := dialRaw(t, s)
	r := hello(t, conn)

	// A validly stamped bundle whose content is then altered in a way
	// that still decodes (a same-length string swap): the server must
	// catch the key mismatch.
	payload := wirePayload(t, bundle("app", "u1", "t1"))
	tampered := bytes.Replace(payload, []byte("t1"), []byte("t2"), 1)
	if bytes.Equal(tampered, payload) {
		t.Fatal("tampering had no effect; test setup broken")
	}
	sendFrame(t, conn, tampered)
	ack, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(ack, "ERR ") || !strings.Contains(ack, "integrity") {
		t.Errorf("tampered frame acked %q, want an integrity rejection", ack)
	}
	// The rejection carries the stamped key, so the client (and the
	// quarantine) can attribute it to the original upload.
	entries := s.Quarantine()
	if len(entries) != 1 || entries[0].Key == "" {
		t.Fatalf("quarantine = %+v, want one entry carrying the stamped key", entries)
	}
	if s.Count() != 0 {
		t.Error("tampered bundle reached the store")
	}
}

func TestLimitsRejectOversizeAndOverlongTraces(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", WithLimits(Limits{MaxLineBytes: 512, MaxRecords: 1}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	// More records than MaxRecords: rejected with a per-frame ERR.
	conn := dialRaw(t, s)
	r := hello(t, conn)
	sendFrame(t, conn, wirePayload(t, bundle("app", "u1", "t1"))) // 2 records
	ack, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(ack, "ERR ") || !strings.Contains(ack, "limit") {
		t.Errorf("overlong trace acked %q, want a limit rejection", ack)
	}

	// A frame over MaxLineBytes: quarantined by size class, connection
	// closed (the next length prefix cannot be trusted).
	conn2 := dialRaw(t, s)
	r2 := hello(t, conn2)
	sendFrame(t, conn2, bytes.Repeat([]byte("x"), 600))
	ack2, err := r2.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(ack2, "ERR ? ") || !strings.Contains(ack2, "size limit") {
		t.Errorf("oversize frame acked %q, want a size-limit rejection", ack2)
	}
	if _, err := r2.ReadString('\n'); err == nil {
		t.Error("connection survived an oversize frame")
	}
	if got := s.QuarantineCount(); got != 2 {
		t.Errorf("quarantine count = %d, want 2", got)
	}
	if s.Count() != 0 {
		t.Error("limited bundle reached the store")
	}
}

func TestBadLineBudgetClosesConnection(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", WithLimits(Limits{MaxBadLinesPerConn: 2}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	conn := dialRaw(t, s)
	r := hello(t, conn)
	for i := 0; i < 3; i++ {
		sendFrame(t, conn, []byte(fmt.Sprintf("garbage %d", i)))
	}
	acks := 0
	for {
		if _, err := r.ReadString('\n'); err != nil {
			break
		}
		acks++
	}
	if acks != 3 {
		t.Errorf("got %d ERR acks before the close, want 3", acks)
	}
	// A good client can still connect afterwards.
	c := NewClient(s.Addr())
	if err := c.Upload(PhoneState{Charging: true, OnWiFi: true},
		[]*trace.TraceBundle{bundle("app", "u", "t")}); err != nil {
		t.Fatal(err)
	}
}

func TestQuarantineRingIsBounded(t *testing.T) {
	s := startServer(t)
	for i := 0; i < maxQuarantineKept+50; i++ {
		s.shards[0].quarantineLine([]byte(fmt.Sprintf("junk %d", i)), "", errors.New("test reject"))
	}
	if got := s.QuarantineCount(); got != maxQuarantineKept+50 {
		t.Errorf("total count = %d, want %d", got, maxQuarantineKept+50)
	}
	entries := s.Quarantine()
	if len(entries) != maxQuarantineKept {
		t.Fatalf("in-memory quarantine holds %d entries, want the cap %d", len(entries), maxQuarantineKept)
	}
	// The ring keeps the most recent entries.
	if want := fmt.Sprintf("junk %d", maxQuarantineKept+49); string(entries[len(entries)-1].Line) != want {
		t.Errorf("newest entry = %q, want %q", entries[len(entries)-1].Line, want)
	}
}

func TestQuarantinePersistsAndNeverLoadsAsCorpus(t *testing.T) {
	dir := t.TempDir()
	store, err := NewSegStore(dir, seglog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer("127.0.0.1:0", WithStore(store))
	if err != nil {
		t.Fatal(err)
	}
	conn := dialRaw(t, s)
	r := hello(t, conn)
	sendFrame(t, conn, []byte("broken line"))
	if _, err := r.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	c := NewClient(s.Addr())
	if err := c.Upload(PhoneState{Charging: true, OnWiFi: true},
		[]*trace.TraceBundle{bundle("app", "u", "t")}); err != nil {
		t.Fatal(err)
	}
	// The raw connection must be gone before Close, which waits for
	// in-flight handlers.
	conn.Close()
	if err := s.Close(); err != nil {
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
	entries, err := store2.LoadQuarantine()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || string(entries[0].Line) != "broken line" {
		t.Fatalf("persisted quarantine = %+v, want the rejected line", entries)
	}
	// Load returns only accepted bundles: quarantine records share the
	// log but must never be picked up as corpus.
	loaded, skipped, err := store2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Errorf("clean store load skipped %d records", skipped)
	}
	total := 0
	for _, bs := range loaded {
		total += len(bs)
	}
	if total != 1 {
		t.Errorf("loaded %d bundles, want 1 (quarantine must not load)", total)
	}
}

func TestStoreLoadToleratesTornTrailingLine(t *testing.T) {
	dir := t.TempDir()
	store, err := NewSegStore(dir, seglog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Stored as the server stores them: scrubbed and key-stamped.
	acked := trace.ScrubBundle(bundle("app", "u1", "t1"))
	torn := trace.ScrubBundle(bundle("app", "u2", "t2"))
	for _, b := range []*trace.TraceBundle{acked, torn} {
		b.Key = trace.ContentKey(b)
		if err := store.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-commit of the second bundle: cut the last
	// segment in the middle of its record, so it was never acked.
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments = %v, %v", segs, err)
	}
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	const cut = 10
	if err := os.Truncate(last, fi.Size()-cut); err != nil {
		t.Fatal(err)
	}

	store2, err := NewSegStore(dir, seglog.Options{})
	if err != nil {
		t.Fatalf("torn trailing record must not fail the open: %v", err)
	}
	defer store2.Close()
	if got := store2.Log().Stats().Truncated; got <= 0 {
		t.Errorf("truncated %d torn bytes, want the partial record cut", got)
	}
	srv, err := NewServer("127.0.0.1:0", WithStore(store2))
	if err != nil {
		t.Fatalf("server must start over a torn store: %v", err)
	}
	defer srv.Close()
	got := srv.Bundles("app")
	if len(got) != 1 || got[0].Key != acked.Key {
		t.Fatalf("reloaded %d bundles, want only the 1 acked one", len(got))
	}
	// The torn bundle was never acked, so its re-upload is new.
	if err := NewClient(srv.Addr()).Upload(charging(), []*trace.TraceBundle{torn}); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Accepted != 1 || st.Duplicated != 0 {
		t.Errorf("re-upload of the torn bundle: stats = %+v, want 1 accepted", st)
	}
}
