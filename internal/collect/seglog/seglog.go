// Package seglog is the segmented append-only bundle log backing the
// fleet-scale collection tier: content-key-addressed records in
// fixed-size segments, per-record CRC (via the binenc frame format —
// one codec for wire and disk), torn-tail truncation on replay and
// group commit.
//
// # On-disk layout
//
// A log directory holds segment files replayed in lexicographic order:
//
//	seg-<n>.log     sealed segments, then the active tail segment
//
// Each record is one binenc frame whose payload is
//
//	u8       record type (bundle=1, quarantine=3)
//	str      record key (uvarint length + bytes)
//	bytes    record body (rest of the frame)
//
// Bundle records are addressed by their content key, so a key is
// immutable: re-appending it is idempotent and replay keeps the last
// occurrence. Quarantine records carry log-assigned keys ("q!<seq>")
// so rejected uploads replay in arrival order. Segments are never
// rewritten: the collection tier dedupes a key before it appends, so
// the log holds no dead records to reclaim.
//
// # Group commit
//
// Append encodes the record, queues it, and the first queued appender
// becomes the commit leader: it drains the whole queue, writes every
// frame with ONE write syscall and ONE fsync, then acks all waiters.
// Appenders arriving while a commit is in flight pile up and form the
// next batch — batching emerges from fsync latency itself, with no
// linger timer, so an idle log still commits a lone record in one
// fsync's time while 64 concurrent uploaders amortize each fsync over
// the whole pileup. A store that Syncs each bundle under one mutex is
// capped at 1/fsync-latency instead.
//
// # Recovery
//
// Open replays every segment front to back. A frame that fails its CRC
// or runs out of bytes in the LAST file is a torn tail from a crash
// mid-commit: the file is truncated at the last good frame and the log
// continues — every acked record survives (it was fsynced before its
// ack), and the torn record was never acked. The same damage in a
// sealed segment is real data loss and fails Open.
package seglog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/trace/binenc"
)

// Record types. Type 2, a tombstone that nothing in the collection
// tier ever appended, stays unassigned and fails replay like any
// unknown type.
const (
	TypeBundle     byte = 1
	TypeQuarantine byte = 3
)

var (
	errClosed      = errors.New("seglog: log is closed")
	errEmptyKey    = errors.New("seglog: empty record key")
	errSealedTorn  = errors.New("seglog: corrupt record in sealed segment")
	errBadType     = errors.New("seglog: unknown record type")
	errKeyTooLarge = errors.New("seglog: record key too large")
)

const (
	segPrefix = "seg-"
	logSuffix = ".log"
	maxKeyLen = 1024
	// defaultSegBytes rotates the active segment once a commit would
	// take it past this size. A batch larger than the limit still lands
	// in a segment of its own.
	defaultSegBytes = 4 << 20
)

// Options is accepted by collect.NewSegStore and ignored.
//
// Deprecated: the log has no settings; pass Options{}.
type Options struct{}

// Stats is a point-in-time snapshot of log counters.
type Stats struct {
	// Appends is the number of records acked durable.
	Appends int64
	// Commits is the number of fsyncs — group commit's whole point is
	// Commits ≪ Appends under concurrency.
	Commits int64
	// LiveRecords is the number of replayable records (bundles +
	// quarantine).
	LiveRecords int
	// Truncated is the number of bytes cut from a torn tail at Open.
	Truncated int64
}

var (
	mAppends  = obs.Default.Counter("seglog_appends_total", "records acked durable")
	mCommits  = obs.Default.Counter("seglog_commits_total", "group-commit fsyncs")
	mRotate   = obs.Default.Counter("seglog_rotations_total", "segments sealed")
	mTruncate = obs.Default.Counter("seglog_truncated_bytes_total", "torn-tail bytes dropped at replay")
	gBatch    = obs.Default.Gauge("seglog_last_commit_batch", "records in the most recent group commit")
)

// recRef locates a record: segment name and byte offset.
type recRef struct {
	seg string
	off int64
}

type pendingOp struct {
	frame []byte
	key   string
	done  chan error
}

// Log is a segmented append-only record log with group commit. All
// methods are safe for concurrent use.
type Log struct {
	dir      string
	segBytes int64

	// mu guards everything in this block. The file handle and its
	// write offset are owned by the commit leader under ioMu; nothing
	// ever waits on ioMu while holding mu.
	mu         sync.Mutex
	idle       sync.Cond // signaled when committing drops to false
	index      map[string]recRef
	segs       []string // replay order; last is active
	queue      []*pendingOp
	committing bool
	closed     bool
	qseq       uint64 // next quarantine sequence number
	stats      Stats

	ioMu     sync.Mutex
	f        *os.File
	curName  string
	curBytes int64
}

// Open replays (and repairs) the log in dir, creating it if needed.
func Open(dir string) (*Log, error) { return openSized(dir, defaultSegBytes) }

// openSized opens a log that rotates its active segment at segBytes.
func openSized(dir string, segBytes int64) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("seglog: %w", err)
	}
	l := &Log{dir: dir, segBytes: segBytes, index: make(map[string]recRef)}
	l.idle.L = &l.mu
	if err := l.replay(); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *Log) segPath(name string) string { return filepath.Join(l.dir, name) }

// listSegments returns the segment files in replay order (os.ReadDir
// sorts by name, and segment numbers are zero-padded).
func (l *Log) listSegments() ([]string, error) {
	ents, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, fmt.Errorf("seglog: %w", err)
	}
	var names []string
	for _, e := range ents {
		if segNum(e.Name()) >= 0 {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

func segName(n uint64) string { return fmt.Sprintf("%s%08d%s", segPrefix, n, logSuffix) }

// segNum parses the sequence number out of seg-<n>.log, -1 otherwise.
func segNum(name string) int64 {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, logSuffix) {
		return -1
	}
	var n int64
	if _, err := fmt.Sscanf(name, segPrefix+"%d"+logSuffix, &n); err != nil {
		return -1
	}
	return n
}

func (l *Log) replay() error {
	names, err := l.listSegments()
	if err != nil {
		return err
	}
	r := newSegReader()
	for fi, name := range names {
		if err := l.replaySegment(r, name, fi == len(names)-1); err != nil {
			return err
		}
	}
	// Continue the last segment as the active one, or start the first.
	if len(names) == 0 {
		names = []string{segName(0)}
	}
	l.segs = names
	active := names[len(names)-1]
	f, err := os.OpenFile(l.segPath(active), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("seglog: open active segment: %w", err)
	}
	end, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return fmt.Errorf("seglog: seek active segment: %w", err)
	}
	l.f, l.curName, l.curBytes = f, active, end
	return nil
}

// replaySegment scans one file through r, indexing records; for the
// last file a torn tail is truncated instead of failing.
func (l *Log) replaySegment(r *segReader, name string, last bool) error {
	f, err := os.Open(l.segPath(name))
	if err != nil {
		return fmt.Errorf("seglog: %w", err)
	}
	defer f.Close()
	r.reset(f)
	for {
		typ, key, _, off, err := r.next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			if !last {
				return fmt.Errorf("%w: %s at offset %d: %v", errSealedTorn, name, off, err)
			}
			st, serr := f.Stat()
			if serr != nil {
				return fmt.Errorf("seglog: stat torn tail of %s: %w", name, serr)
			}
			if terr := os.Truncate(l.segPath(name), off); terr != nil {
				return fmt.Errorf("seglog: truncate torn tail of %s: %w", name, terr)
			}
			l.stats.Truncated += st.Size() - off
			mTruncate.Add(st.Size() - off)
			return nil
		}
		if typ == TypeQuarantine {
			if n := qseqOf(key); n >= l.qseq {
				l.qseq = n + 1
			}
		}
		l.index[key] = recRef{seg: name, off: off}
	}
}

// qseqOf parses the sequence out of a "q!<seq>" key, or 0.
func qseqOf(key string) uint64 {
	var n uint64
	if _, err := fmt.Sscanf(key, "q!%d", &n); err != nil {
		return 0
	}
	return n
}

// segReader reads a segment's records front to back. One reader serves
// every segment of a replay or scan (reset), and every record is read
// into one payload buffer, so a record's body is valid only until the
// next call to next.
type segReader struct {
	r   *bufio.Reader
	off int64  // offset of the next frame
	buf []byte // the last record's payload; its storage is reused
}

func newSegReader() *segReader {
	return &segReader{r: bufio.NewReaderSize(nil, 64<<10)}
}

// reset points the reader at the start of f, keeping its buffers.
func (s *segReader) reset(f *os.File) {
	s.r.Reset(f)
	s.off = 0
}

// next returns the next record and its offset. At a clean end of file
// it returns io.EOF; a torn, corrupt or unparsable frame returns its
// cause, with off at the start of that frame.
func (s *segReader) next() (typ byte, key string, body []byte, off int64, err error) {
	off = s.off
	payload, err := binenc.ReadFrame(s.r, binenc.MaxFrameBytes, s.buf)
	if err != nil {
		return 0, "", nil, off, err
	}
	s.buf = payload
	if typ, key, body, err = splitRecord(payload); err != nil {
		return 0, "", nil, off, err
	}
	s.off += int64(len(payload)) + binenc.FrameOverhead
	return typ, key, body, off, nil
}

// splitRecord parses a record payload into (type, key, body).
func splitRecord(payload []byte) (byte, string, []byte, error) {
	if len(payload) == 0 {
		return 0, "", nil, io.ErrUnexpectedEOF
	}
	typ := payload[0]
	if typ != TypeBundle && typ != TypeQuarantine {
		return 0, "", nil, fmt.Errorf("%w: %d", errBadType, typ)
	}
	rest := payload[1:]
	n, w := binary.Uvarint(rest)
	if w <= 0 || n > maxKeyLen || n > uint64(len(rest)-w) {
		return 0, "", nil, io.ErrUnexpectedEOF
	}
	key := string(rest[w : w+int(n)])
	return typ, key, rest[w+int(n):], nil
}

func appendRecord(dst []byte, typ byte, key string, body []byte) []byte {
	payload := make([]byte, 0, 1+2+len(key)+len(body))
	payload = append(payload, typ)
	payload = binary.AppendUvarint(payload, uint64(len(key)))
	payload = append(payload, key...)
	payload = append(payload, body...)
	return binenc.AppendFrame(dst, payload)
}

// AppendBundle group-commits a content-key-addressed bundle record and
// returns once it is fsynced.
func (l *Log) AppendBundle(key string, payload []byte) error {
	return l.commit(TypeBundle, key, payload)
}

// AppendQuarantine group-commits a rejected upload; the log assigns
// the key.
func (l *Log) AppendQuarantine(line []byte) error {
	return l.commit(TypeQuarantine, "", line)
}

// commit queues one record and returns once it is fsynced. The call
// blocks for at most ~two fsync latencies; under concurrent load many
// commits share each fsync.
func (l *Log) commit(typ byte, key string, body []byte) error {
	if len(key) > maxKeyLen {
		return errKeyTooLarge
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return errClosed
	}
	if typ == TypeQuarantine {
		key = fmt.Sprintf("q!%016d", l.qseq)
		l.qseq++
	}
	if key == "" {
		l.mu.Unlock()
		return errEmptyKey
	}
	op := &pendingOp{frame: appendRecord(nil, typ, key, body), key: key, done: make(chan error, 1)}
	l.queue = append(l.queue, op)
	if l.committing {
		l.mu.Unlock() // a leader is in flight; it will pick us up
	} else {
		l.committing = true
		l.commitLoop() // unlocks mu
	}
	return <-op.done
}

// commitLoop runs as the commit leader. Called with mu held and
// committing set; returns with mu released. Even after Close is
// observed the loop drains every queued op (each gets an ack), because
// commit stops admitting new ops once closed is set.
func (l *Log) commitLoop() {
	for {
		batch := l.queue
		l.queue = nil
		l.mu.Unlock()

		l.ioMu.Lock()
		refs, err := l.writeBatch(batch)
		l.ioMu.Unlock()

		l.mu.Lock()
		if err == nil {
			for i, op := range batch {
				l.index[op.key] = refs[i]
			}
			l.stats.Appends += int64(len(batch))
			l.stats.Commits++
			mAppends.Add(int64(len(batch)))
			mCommits.Add(1)
			gBatch.Set(float64(len(batch)))
		}
		for _, op := range batch {
			op.done <- err
		}
		if len(l.queue) == 0 {
			l.committing = false
			l.idle.Broadcast()
			l.mu.Unlock()
			return
		}
	}
}

// writeBatch writes all frames of a batch with one write and one fsync,
// rotating the active segment first if it is over budget. Caller holds
// ioMu. Returns the ref of every record.
func (l *Log) writeBatch(batch []*pendingOp) ([]recRef, error) {
	var total int64
	for _, op := range batch {
		total += int64(len(op.frame))
	}
	if l.curBytes > 0 && l.curBytes+total > l.segBytes {
		if err := l.rotateLocked(); err != nil {
			return nil, err
		}
	}
	buf := make([]byte, 0, total)
	refs := make([]recRef, len(batch))
	off := l.curBytes
	for i, op := range batch {
		refs[i] = recRef{seg: l.curName, off: off}
		off += int64(len(op.frame))
		buf = append(buf, op.frame...)
	}
	if _, err := l.f.Write(buf); err != nil {
		return nil, fmt.Errorf("seglog: write batch: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return nil, fmt.Errorf("seglog: fsync: %w", err)
	}
	l.curBytes = off
	return refs, nil
}

// rotateLocked seals the active segment and opens the next. Caller
// holds ioMu (and not mu).
func (l *Log) rotateLocked() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("seglog: seal fsync: %w", err)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("seglog: seal close: %w", err)
	}
	next := segName(uint64(segNum(l.curName)) + 1)
	f, err := os.OpenFile(l.segPath(next), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("seglog: open next segment: %w", err)
	}
	l.f, l.curName, l.curBytes = f, next, 0
	l.mu.Lock()
	l.segs = append(l.segs, next)
	l.mu.Unlock()
	mRotate.Add(1)
	return nil
}

// Scan streams every live record (the last occurrence of each key) in
// replay order. The body slice is only valid during the callback: every
// record is read into one reused buffer.
func (l *Log) Scan(fn func(typ byte, key string, body []byte) error) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return errClosed
	}
	live := make(map[string]recRef, len(l.index))
	for k, v := range l.index {
		live[k] = v
	}
	names := append([]string(nil), l.segs...)
	l.mu.Unlock()

	r := newSegReader()
	for _, name := range names {
		if err := l.scanFile(r, name, live, fn); err != nil {
			return err
		}
	}
	return nil
}

// scanFile streams the records of one segment that live points at,
// through r. A torn or unparsable tail ends the scan silently — for
// the active segment that is the write frontier racing ahead of the
// index snapshot; sealed segments were integrity-checked at Open.
func (l *Log) scanFile(r *segReader, name string, live map[string]recRef, fn func(typ byte, key string, body []byte) error) error {
	f, err := os.Open(l.segPath(name))
	if err != nil {
		return fmt.Errorf("seglog: %w", err)
	}
	defer f.Close()
	r.reset(f)
	for {
		typ, key, body, off, err := r.next()
		if err != nil {
			if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) ||
				errors.Is(err, binenc.ErrCRCMismatch) || errors.Is(err, errBadType) {
				return nil
			}
			return fmt.Errorf("seglog: scan %s: %w", name, err)
		}
		if ref, ok := live[key]; !ok || ref != (recRef{seg: name, off: off}) {
			continue // superseded, or appended after the snapshot
		}
		if err := fn(typ, key, body); err != nil {
			return err
		}
	}
}

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.stats
	s.LiveRecords = len(l.index)
	return s
}

// Close waits for the in-flight commit batch to drain and closes the
// active segment. Every previously acked record is already durable;
// appends racing Close fail.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	for l.committing {
		l.idle.Wait()
	}
	l.mu.Unlock()
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("seglog: close: %w", err)
	}
	return nil
}
