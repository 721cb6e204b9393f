package collect

import (
	"bufio"
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/collect/seglog"
	"repro/internal/faults"
	"repro/internal/trace"
)

func charging() PhoneState { return PhoneState{Charging: true, OnWiFi: true} }

// TestBinaryUploadRoundTrip: a client exchanges the hello, frames its
// bundles, and the server stores them scrubbed and integrity-checked.
func TestBinaryUploadRoundTrip(t *testing.T) {
	s := startServer(t)
	c := NewClient(s.Addr())
	if err := c.Upload(charging(), []*trace.TraceBundle{
		bundle("k9mail", "alice@example.com", "t1"),
		bundle("k9mail", "bob@example.com", "t2"),
	}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Attempts != 1 || st.Acked != 2 {
		t.Fatalf("client stats = %+v, want both bundles acked on the first connection", st)
	}
	got := s.Bundles("k9mail")
	if len(got) != 2 {
		t.Fatalf("stored %d bundles, want 2", len(got))
	}
	for _, b := range got {
		if strings.Contains(b.Event.UserID, "@") {
			t.Errorf("raw user ID stored: %q", b.Event.UserID)
		}
		if err := trace.VerifyContentKey(b); err != nil {
			t.Errorf("stored bundle fails integrity: %v", err)
		}
	}
	if st := s.Stats(); st.Accepted != 2 || st.Quarantined != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestNoHelloRejected: a connection that does not open with the hello
// — e.g. a JSON-lines client — gets exactly one "ERR ?" ack and is
// closed. At every shard count shard 0 quarantines its first bytes, so
// accepted + duplicated + quarantined still equals messages received.
func TestNoHelloRejected(t *testing.T) {
	var jsonLine bytes.Buffer
	b := bundle("k9mail", "u", "t1")
	b.Key = trace.ContentKey(b)
	if err := trace.EncodeBundle(&jsonLine, b); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		shards int
	}{{"server", 1}, {"sharded", 3}} {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := startSharded(t, t.TempDir(), tc.shards, nil)
			conn := dialAddr(t, s.Addr())
			if _, err := conn.Write(jsonLine.Bytes()); err != nil {
				t.Fatal(err)
			}
			r := bufio.NewReader(conn)
			ack, err := r.ReadString('\n')
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(ack, "ERR ? ") || !strings.Contains(ack, helloBinary) {
				t.Errorf("ack = %q, want ERR ? naming the missing hello", ack)
			}
			if extra, err := r.ReadString('\n'); err == nil {
				t.Errorf("connection survived its rejection: second ack %q", extra)
			}
			if st := s.Stats(); st.Accepted != 0 || st.Duplicated != 0 || st.Quarantined != 1 {
				t.Fatalf("stats = %+v, want the connection as 1 quarantined message", st)
			}
			if qc := s.shards[0].quarantineCount(); qc != 1 {
				t.Fatalf("shard 0 quarantined %d, want the connection", qc)
			}
			entries := s.Quarantine()
			if len(entries) != 1 || entries[0].Reason != errNoHello.Error() ||
				!bytes.Equal(entries[0].Line, jsonLine.Bytes()[:len(helloLine)]) {
				t.Fatalf("quarantine = %+v, want the connection's first bytes with the no-hello reason", entries)
			}
			// A hello-speaking client is unaffected.
			if err := NewClient(s.Addr()).Upload(charging(), []*trace.TraceBundle{bundle("k9mail", "u", "t1")}); err != nil {
				t.Fatal(err)
			}
			if st := s.Stats(); st.Accepted != 1 {
				t.Fatalf("stats after a framed upload = %+v", st)
			}
		})
	}
}

// TestBinaryUploadWithSegStore: the full fleet path — binary wire codec
// into the group-committing segmented store — survives a server
// restart with dedup intact.
func TestBinaryUploadWithSegStore(t *testing.T) {
	dir := t.TempDir()
	store, err := NewSegStore(dir, seglog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer("127.0.0.1:0", WithStore(store))
	if err != nil {
		t.Fatal(err)
	}
	bundles := []*trace.TraceBundle{
		bundle("k9mail", "u1", "t1"),
		bundle("k9mail", "u2", "t2"),
		bundle("opengps", "u3", "t1"),
	}
	if err := NewClient(s.Addr()).Upload(charging(), bundles); err != nil {
		t.Fatal(err)
	}
	if st := store.Log().Stats(); st.Appends != 3 {
		t.Fatalf("log appends = %d", st.Appends)
	}
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
	s2, err := NewServer("127.0.0.1:0", WithStore(store2))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s2.Close(); store2.Close() }()
	if got := s2.Count(); got != 3 {
		t.Fatalf("restarted server reloaded %d bundles, want 3", got)
	}
	// Re-upload is a pure duplicate against the reloaded store.
	if err := NewClient(s2.Addr()).Upload(charging(), bundles); err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Accepted != 0 || st.Duplicated != 3 {
		t.Fatalf("stats after re-upload = %+v", st)
	}
	if st := store2.Log().Stats(); st.LiveRecords != 3 {
		t.Fatalf("log live records = %d", st.LiveRecords)
	}
}

// TestBinaryUploadFaultInjected: corruption, duplication and drops on
// the wire still yield exactly-once ingest.
func TestBinaryUploadFaultInjected(t *testing.T) {
	dir := t.TempDir()
	store, err := NewSegStore(dir, seglog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer("127.0.0.1:0", WithStore(store))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close(); store.Close() }()
	inj, err := faults.New(faults.Config{
		CorruptProb:   0.15,
		DuplicateProb: 0.2,
		DropProb:      0.1,
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	var bundles []*trace.TraceBundle
	for i := 0; i < 40; i++ {
		bundles = append(bundles, bundle("k9mail", fmt.Sprintf("u%d", i), fmt.Sprintf("t%d", i)))
	}
	c := NewClient(s.Addr(), WithFaults(inj),
		WithRetry(60, time.Millisecond, 4*time.Millisecond), WithJitterSeed(1))
	if err := c.Upload(charging(), bundles); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Bundles("k9mail")); got != 40 {
		t.Fatalf("stored %d bundles, want exactly 40", got)
	}
	st := s.Stats()
	if st.Accepted != 40 {
		t.Fatalf("accepted = %d, want exactly 40 (duplicated=%d quarantined=%d)",
			st.Accepted, st.Duplicated, st.Quarantined)
	}
}

// TestQuarantinePersistsInSegStore: rejected uploads survive a restart
// through the segment log's quarantine records.
func TestQuarantinePersistsInSegStore(t *testing.T) {
	dir := t.TempDir()
	store, err := NewSegStore(dir, seglog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := store.AppendQuarantine(QuarantineEntry{
			Reason: fmt.Sprintf("reason-%d", i),
			Line:   []byte(fmt.Sprintf("line-%d", i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	store.Close()
	store2, err := NewSegStore(dir, seglog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	got, err := store2.LoadQuarantine()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("quarantine entries = %d, want 3", len(got))
	}
	for i, e := range got {
		if e.Reason != fmt.Sprintf("reason-%d", i) {
			t.Fatalf("entry %d out of order: %+v", i, e)
		}
	}
}

// TestSanitizeAppIDNoCollision is the regression test for the dump
// filename collision: "a/b" and "a_b" used to share one file.
func TestSanitizeAppIDNoCollision(t *testing.T) {
	cases := [][2]string{
		{"a/b", "a_b"},
		{"a.b", "a/b"},
		{"x y", "x_y"},
		{"приложение", "__________"},
	}
	for _, c := range cases {
		if SanitizeAppID(c[0]) == SanitizeAppID(c[1]) {
			t.Errorf("SanitizeAppID collision: %q and %q -> %q", c[0], c[1], SanitizeAppID(c[0]))
		}
	}
	// Clean IDs keep their exact names.
	for _, clean := range []string{"k9mail", "com.example.app", "a_b", "A-1.2_3"} {
		if got := SanitizeAppID(clean); got != clean {
			t.Errorf("SanitizeAppID(%q) = %q, want unchanged", clean, got)
		}
	}
}
