package seglog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"
)

// open opens the log in dir, rotating segments at segBytes.
func open(t *testing.T, dir string, segBytes int64) *Log {
	t.Helper()
	l, err := openSized(dir, segBytes)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func mustAppend(t *testing.T, l *Log, key, body string) {
	t.Helper()
	if err := l.AppendBundle(key, []byte(body)); err != nil {
		t.Fatalf("AppendBundle(%s): %v", key, err)
	}
}

// collect scans the log into a map plus the in-order quarantine bodies,
// failing if Scan yields a key twice.
func collect(t *testing.T, l *Log) (map[string]string, []string) {
	t.Helper()
	bundles := map[string]string{}
	var quarantine []string
	seen := map[string]bool{}
	err := l.Scan(func(typ byte, key string, body []byte) error {
		if seen[key] {
			t.Fatalf("Scan yielded key %q twice", key)
		}
		seen[key] = true
		switch typ {
		case TypeBundle:
			bundles[key] = string(body)
		case TypeQuarantine:
			quarantine = append(quarantine, string(body))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return bundles, quarantine
}

func TestAppendScanReopen(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, defaultSegBytes)
	for i := 0; i < 20; i++ {
		mustAppend(t, l, fmt.Sprintf("k%02d", i), fmt.Sprintf("payload-%d", i))
	}
	if err := l.AppendQuarantine([]byte(`{"bad":1}`)); err != nil {
		t.Fatalf("AppendQuarantine: %v", err)
	}
	if err := l.AppendQuarantine([]byte(`{"bad":2}`)); err != nil {
		t.Fatalf("AppendQuarantine: %v", err)
	}
	check := func(l *Log) {
		t.Helper()
		bundles, quarantine := collect(t, l)
		if len(bundles) != 20 {
			t.Fatalf("want 20 live bundles, got %d", len(bundles))
		}
		if bundles["k07"] != "payload-7" {
			t.Fatalf("k07 = %q", bundles["k07"])
		}
		if len(quarantine) != 2 || quarantine[0] != `{"bad":1}` || quarantine[1] != `{"bad":2}` {
			t.Fatalf("quarantine replay = %q", quarantine)
		}
		if st := l.Stats(); st.LiveRecords != 22 {
			t.Fatalf("live records = %d, want 22", st.LiveRecords)
		}
	}
	check(l)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2 := open(t, dir, defaultSegBytes)
	defer l2.Close()
	check(l2)
	// And the log keeps accepting after reopen, continuing the
	// quarantine sequence.
	mustAppend(t, l2, "post-reopen", "x")
	if err := l2.AppendQuarantine([]byte(`{"bad":3}`)); err != nil {
		t.Fatalf("AppendQuarantine: %v", err)
	}
	bundles, quarantine := collect(t, l2)
	if bundles["post-reopen"] != "x" {
		t.Fatal("append after reopen lost")
	}
	if len(quarantine) != 3 || quarantine[2] != `{"bad":3}` {
		t.Fatalf("quarantine after reopen = %q", quarantine)
	}
}

func TestDuplicateKeyIdempotent(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, defaultSegBytes)
	mustAppend(t, l, "dup", "same-bytes")
	mustAppend(t, l, "dup", "same-bytes")
	bundles, _ := collect(t, l)
	if len(bundles) != 1 || bundles["dup"] != "same-bytes" {
		t.Fatalf("bundles = %v", bundles)
	}
	st := l.Stats()
	if st.Appends != 2 || st.LiveRecords != 1 {
		t.Fatalf("stats = %+v", st)
	}
	l.Close()
	l2 := open(t, dir, defaultSegBytes)
	defer l2.Close()
	bundles, _ = collect(t, l2)
	if len(bundles) != 1 {
		t.Fatalf("after reopen: %v", bundles)
	}
}

// TestGroupCommitBatching: 64 concurrent appenders must share fsyncs.
func TestGroupCommitBatching(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, defaultSegBytes)
	defer l.Close()
	const workers, per = 64, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := l.AppendBundle(fmt.Sprintf("w%02d-%04d", w, i), []byte("body")); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := l.Stats()
	if st.Appends != workers*per {
		t.Fatalf("appends = %d", st.Appends)
	}
	if st.Commits >= st.Appends {
		t.Fatalf("no batching: %d commits for %d appends", st.Commits, st.Appends)
	}
	t.Logf("fsyncs-per-append = %.3f (%d commits / %d appends)",
		float64(st.Commits)/float64(st.Appends), st.Commits, st.Appends)
	bundles, _ := collect(t, l)
	if len(bundles) != workers*per {
		t.Fatalf("live = %d", len(bundles))
	}
}

// activeSegment returns the path of the lexicographically-last segment.
func activeSegment(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	if len(names) == 0 {
		t.Fatal("no segments")
	}
	return filepath.Join(dir, names[len(names)-1])
}

// TestCrashTruncatedTail simulates a kill mid-append: a partial frame
// at the end of the active segment. Replay must recover every acked
// record and drop the torn bytes.
func TestCrashTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, defaultSegBytes)
	for i := 0; i < 10; i++ {
		mustAppend(t, l, fmt.Sprintf("acked-%d", i), "v")
	}
	l.Close()

	seg := activeSegment(t, dir)
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A torn record: plausible length prefix, then the crash.
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2 := open(t, dir, defaultSegBytes)
	defer l2.Close()
	if st := l2.Stats(); st.Truncated == 0 {
		t.Fatal("no tail truncation recorded")
	}
	bundles, _ := collect(t, l2)
	if len(bundles) != 10 {
		t.Fatalf("acked bundles lost: %d/10 live", len(bundles))
	}
	// The truncated log must accept and persist new records.
	mustAppend(t, l2, "after-crash", "v")
	l2.Close()
	l3 := open(t, dir, defaultSegBytes)
	defer l3.Close()
	bundles, _ = collect(t, l3)
	if _, ok := bundles["after-crash"]; !ok || len(bundles) != 11 {
		t.Fatal("records lost after post-crash append")
	}
}

// TestCrashBadCRC flips a byte inside the final record: the torn record
// is dropped, everything before it survives.
func TestCrashBadCRC(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, defaultSegBytes)
	for i := 0; i < 5; i++ {
		mustAppend(t, l, fmt.Sprintf("k%d", i), "v")
	}
	// Note where the last record begins, then corrupt one byte past it.
	sizeBefore := fileSizeAt(t, activeSegment(t, dir))
	mustAppend(t, l, "torn", "this one dies")
	l.Close()

	seg := activeSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[sizeBefore+12] ^= 0xff // inside the torn record's payload
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2 := open(t, dir, defaultSegBytes)
	defer l2.Close()
	bundles, _ := collect(t, l2)
	if len(bundles) != 5 {
		t.Fatalf("want 5 survivors, got %d", len(bundles))
	}
	if _, ok := bundles["torn"]; ok {
		t.Fatal("corrupt record replayed")
	}
	if st := l2.Stats(); st.Truncated == 0 {
		t.Fatal("no truncation recorded")
	}
}

func fileSizeAt(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// TestSealedCorruptionFails: damage in a non-last segment is data loss,
// not a torn tail — Open must refuse rather than silently truncate.
func TestSealedCorruptionFails(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, 256)
	for i := 0; i < 40; i++ {
		mustAppend(t, l, fmt.Sprintf("k%02d", i), "some payload to fill segments")
	}
	l.Close()
	ents, _ := os.ReadDir(dir)
	if len(ents) < 3 {
		t.Fatalf("want several segments, got %d", len(ents))
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	sealed := filepath.Join(dir, names[0])
	data, _ := os.ReadFile(sealed)
	data[len(data)/2] ^= 0xff
	os.WriteFile(sealed, data, 0o644)
	if _, err := openSized(dir, 256); !errors.Is(err, errSealedTorn) {
		t.Fatalf("want errSealedTorn, got %v", err)
	}
}

func TestRotationReplay(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, 512)
	const n = 100
	for i := 0; i < n; i++ {
		mustAppend(t, l, fmt.Sprintf("k%03d", i), "padding padding padding")
	}
	if ents, _ := os.ReadDir(dir); len(ents) < 2 {
		t.Fatalf("no rotation: %d segments", len(ents))
	}
	l.Close()
	l2 := open(t, dir, 512)
	defer l2.Close()
	bundles, _ := collect(t, l2)
	if len(bundles) != n {
		t.Fatalf("lost records across rotation: %d/%d", len(bundles), n)
	}
}

// TestConcurrentAppendScan races appends across rotations with scans;
// run with -race in the soak job.
func TestConcurrentAppendScan(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, 2048)
	defer l.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				key := fmt.Sprintf("k%02d", (w*150+i)%25) // heavy supersession
				if err := l.AppendBundle(key, []byte("concurrent body, re-appended")); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			_ = l.Scan(func(byte, string, []byte) error { return nil })
		}
	}()
	wg.Wait()
	bundles, _ := collect(t, l)
	if len(bundles) != 25 {
		t.Fatalf("live keys = %d, want 25", len(bundles))
	}
}

// TestCloseAckInvariant: an Append that returned nil is durable even if
// Close raced it; an append refused as closed left no trace.
func TestCloseAckInvariant(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, defaultSegBytes)
	var mu sync.Mutex
	acked := map[string]bool{}
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				key := fmt.Sprintf("w%02d-%04d", w, i)
				err := l.AppendBundle(key, []byte("v"))
				if errors.Is(err, errClosed) {
					return
				}
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				mu.Lock()
				acked[key] = true
				mu.Unlock()
			}
		}(w)
	}
	// Let the appenders get going, then slam the door.
	for l.Stats().Appends < 200 {
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()

	l2 := open(t, dir, defaultSegBytes)
	defer l2.Close()
	bundles, _ := collect(t, l2)
	for key := range acked {
		if _, ok := bundles[key]; !ok {
			t.Fatalf("acked record %s lost by Close race", key)
		}
	}
}

func TestEmptyAndMissingKeys(t *testing.T) {
	l := open(t, t.TempDir(), defaultSegBytes)
	defer l.Close()
	if err := l.AppendBundle("", []byte("x")); !errors.Is(err, errEmptyKey) {
		t.Fatalf("want errEmptyKey, got %v", err)
	}
	if err := l.AppendBundle(string(make([]byte, maxKeyLen+1)), []byte("x")); !errors.Is(err, errKeyTooLarge) {
		t.Fatalf("want errKeyTooLarge, got %v", err)
	}
	if bundles, quarantine := collect(t, l); len(bundles)+len(quarantine) != 0 {
		t.Fatalf("rejected appends left records: %v %q", bundles, quarantine)
	}
}

// TestReplayAndScanReuseFrameBuffer: Open's replay and Scan read every
// record into one reused payload buffer, so reading N records across
// several segments allocates O(1) frame buffers, not one per record.
// The bodies are large enough that N of them would dwarf everything
// else a replay or scan allocates (the index, the keys, the readers).
func TestReplayAndScanReuseFrameBuffer(t *testing.T) {
	const n, size = 64, 32 << 10
	dir := t.TempDir()
	l := open(t, dir, 8*size) // rotates, so the reader spans ~8 segments
	body := make([]byte, size)
	for i := 0; i < n; i++ {
		body[0] = byte(i)
		if err := l.AppendBundle(fmt.Sprintf("k%02d", i), body); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	allocated := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	const limit = n * size / 8
	var l2 *Log
	if got := allocated(func() { l2 = open(t, dir, 8*size) }); got > limit {
		t.Errorf("replaying %d records of %d bytes allocated %d bytes, want <= %d", n, size, got, limit)
	}
	defer l2.Close()
	seen := 0
	got := allocated(func() {
		err := l2.Scan(func(_ byte, _ string, body []byte) error {
			if len(body) != size || body[0] != byte(seen) {
				return fmt.Errorf("record %d: body of %d bytes starting %d", seen, len(body), body[0])
			}
			seen++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	if seen != n {
		t.Fatalf("Scan yielded %d records, want %d", seen, n)
	}
	if got > limit {
		t.Errorf("scanning %d records of %d bytes allocated %d bytes, want <= %d", n, size, got, limit)
	}
}
