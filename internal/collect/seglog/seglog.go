// Package seglog is the segmented append-only bundle log backing the
// fleet-scale collection tier: content-key-addressed records in
// fixed-size segments, per-record CRC (via the binenc frame format —
// one codec for wire and disk), torn-tail truncation on replay, group
// commit, and background compaction of superseded records.
//
// # On-disk layout
//
// A log directory holds segment files replayed in lexicographic order:
//
//	cmp-<gen>.log   at most one compacted segment (live survivors of
//	                all previously sealed segments), sorts first
//	seg-<n>.log     sealed segments, then the active tail segment
//	*.tmp           in-progress compaction output; deleted on open
//
// Each record is one binenc frame whose payload is
//
//	u8       record type (bundle=1, tombstone=2, quarantine=3)
//	str      record key (uvarint length + bytes)
//	bytes    record body (rest of the frame)
//
// Bundle records are addressed by their content key, so a key is
// immutable: re-appending it is idempotent and replay keeps the last
// occurrence. A tombstone kills the key; compaction then reclaims both.
// Quarantine records carry log-assigned keys ("q!<seq>") so rejected
// uploads replay in arrival order.
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
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/trace/binenc"
)

// Record types.
const (
	TypeBundle     byte = 1
	TypeTombstone  byte = 2
	TypeQuarantine byte = 3
)

// Errors.
var (
	ErrClosed      = errors.New("seglog: log is closed")
	ErrEmptyKey    = errors.New("seglog: empty record key")
	ErrSealedTorn  = errors.New("seglog: corrupt record in sealed segment")
	ErrBadType     = errors.New("seglog: unknown record type")
	errCompacting  = errors.New("seglog: compaction already running")
	errKeyTooLarge = errors.New("seglog: record key too large")
)

const (
	segPrefix       = "seg-"
	cmpPrefix       = "cmp-"
	logSuffix       = ".log"
	tmpSuffix       = ".tmp"
	maxKeyLen       = 1024
	defaultSegBytes = 4 << 20
)

// Options tunes a Log; the zero value gives production defaults.
type Options struct {
	// SegmentBytes rotates the active segment once it would exceed this
	// many bytes (default 4 MiB). A record larger than the limit still
	// lands in a segment of its own.
	SegmentBytes int64
	// MaxRecordBytes bounds a replayed frame (default
	// binenc.MaxFrameBytes).
	MaxRecordBytes int
	// AutoCompact triggers a background Compact after a rotation when
	// the dead fraction of sealed bytes exceeds CompactRatio.
	AutoCompact bool
	// CompactRatio is the dead-bytes fraction that arms AutoCompact
	// (default 0.5).
	CompactRatio float64
	// QuarantineKeep caps quarantine records at compaction time,
	// dropping the oldest beyond the cap; 0 keeps all.
	QuarantineKeep int
}

// Stats is a point-in-time snapshot of log counters.
type Stats struct {
	// Appends is the number of records acked durable.
	Appends int64
	// Commits is the number of fsyncs — group commit's whole point is
	// Commits ≪ Appends under concurrency.
	Commits int64
	// Rotations counts sealed segments over the log's lifetime.
	Rotations int64
	// Compactions counts completed Compact runs.
	Compactions int64
	// Segments is the current number of segment files.
	Segments int
	// LiveRecords is the number of replayable records (bundles +
	// quarantine).
	LiveRecords int
	// DeadBytes is the sealed-segment byte count owned by superseded or
	// tombstoned records, reclaimable by Compact.
	DeadBytes int64
	// LiveBytes is the sealed-segment byte count owned by live records.
	LiveBytes int64
	// Truncated is the number of bytes cut from a torn tail at Open.
	Truncated int64
}

var (
	mAppends  = obs.Default.Counter("seglog_appends_total", "records acked durable")
	mCommits  = obs.Default.Counter("seglog_commits_total", "group-commit fsyncs")
	mRotate   = obs.Default.Counter("seglog_rotations_total", "segments sealed")
	mCompact  = obs.Default.Counter("seglog_compactions_total", "compaction runs")
	mTruncate = obs.Default.Counter("seglog_truncated_bytes_total", "torn-tail bytes dropped at replay")
	gBatch    = obs.Default.Gauge("seglog_last_commit_batch", "records in the most recent group commit")
)

// recRef locates a record: segment name, byte offset, framed length.
type recRef struct {
	seg  string
	off  int64
	size int64
	typ  byte
}

type segInfo struct {
	name  string
	bytes int64 // total framed bytes
	live  int64 // framed bytes still referenced by the index
}

type pendingOp struct {
	frame []byte
	key   string
	typ   byte
	done  chan error
}

// Log is a segmented append-only record log with group commit. All
// methods are safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	// mu guards everything in this block. The file handle and its
	// write offset are owned by the commit leader under ioMu; nothing
	// ever waits on ioMu while holding mu.
	mu         sync.Mutex
	idle       sync.Cond // signaled when committing drops to false
	index      map[string]recRef
	segs       []segInfo // replay order; last is active
	queue      []*pendingOp
	committing bool
	compacting bool
	closed     bool
	qseq       uint64 // next quarantine sequence number
	cmpGen     uint64 // next compacted-segment generation
	stats      Stats

	ioMu     sync.Mutex
	f        *os.File
	curName  string
	curBytes int64
}

// Open replays (and repairs) the log in dir, creating it if needed.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegBytes
	}
	if opts.MaxRecordBytes <= 0 {
		opts.MaxRecordBytes = binenc.MaxFrameBytes
	}
	if opts.CompactRatio <= 0 {
		opts.CompactRatio = 0.5
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("seglog: %w", err)
	}
	l := &Log{dir: dir, opts: opts, index: make(map[string]recRef)}
	l.idle.L = &l.mu
	if err := l.replay(); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *Log) segPath(name string) string { return filepath.Join(l.dir, name) }

// listSegments returns replayable segment files in replay order and
// removes stray compaction temporaries.
func (l *Log) listSegments() ([]string, error) {
	ents, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, fmt.Errorf("seglog: %w", err)
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, tmpSuffix):
			if err := os.Remove(l.segPath(name)); err != nil {
				return nil, fmt.Errorf("seglog: drop stray %s: %w", name, err)
			}
		case strings.HasSuffix(name, logSuffix) &&
			(strings.HasPrefix(name, segPrefix) || strings.HasPrefix(name, cmpPrefix)):
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

func segName(n uint64) string { return fmt.Sprintf("%s%08d%s", segPrefix, n, logSuffix) }
func cmpName(g uint64) string { return fmt.Sprintf("%s%016d%s", cmpPrefix, g, logSuffix) }

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
	var maxSeg int64 = -1
	for fi, name := range names {
		last := fi == len(names)-1
		if n := segNum(name); n > maxSeg {
			maxSeg = n
		}
		if strings.HasPrefix(name, cmpPrefix) {
			var g uint64
			if _, err := fmt.Sscanf(name, cmpPrefix+"%d"+logSuffix, &g); err == nil && g >= l.cmpGen {
				l.cmpGen = g + 1
			}
		}
		size, err := l.replaySegment(name, last)
		if err != nil {
			return err
		}
		l.segs = append(l.segs, segInfo{name: name, bytes: size})
	}
	// Recompute per-segment live bytes from the final index.
	liveBySeg := make(map[string]int64)
	for _, ref := range l.index {
		liveBySeg[ref.seg] += ref.size
	}
	for i := range l.segs {
		l.segs[i].live = liveBySeg[l.segs[i].name]
	}
	// Continue the highest-numbered seg file as the active segment, or
	// start a fresh one (also when only a cmp file exists: cmp files
	// are sealed by construction).
	active := segName(uint64(maxSeg + 1))
	if len(l.segs) > 0 && l.segs[len(l.segs)-1].name == segName(uint64(maxSeg)) {
		active = l.segs[len(l.segs)-1].name
	} else {
		l.segs = append(l.segs, segInfo{name: active})
	}
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

// replaySegment scans one file, indexing records; for the last file a
// torn tail is truncated instead of failing. Returns the surviving size.
func (l *Log) replaySegment(name string, last bool) (int64, error) {
	f, err := os.Open(l.segPath(name))
	if err != nil {
		return 0, fmt.Errorf("seglog: %w", err)
	}
	defer f.Close()
	truncate := func(off int64, cause error) (int64, error) {
		if !last {
			return 0, fmt.Errorf("%w: %s at offset %d: %v", ErrSealedTorn, name, off, cause)
		}
		cut := fileSize(f) - off
		if terr := os.Truncate(l.segPath(name), off); terr != nil {
			return 0, fmt.Errorf("seglog: truncate torn tail of %s: %w", name, terr)
		}
		l.stats.Truncated += cut
		mTruncate.Add(cut)
		return off, nil
	}
	var off int64
	r := bufReader(f)
	for {
		payload, err := binenc.ReadFrame(r, l.opts.MaxRecordBytes)
		if err == io.EOF {
			return off, nil
		}
		if err != nil {
			return truncate(off, err)
		}
		size := int64(len(payload)) + binenc.FrameOverhead
		typ, key, _, err := splitRecord(payload)
		if err != nil {
			return truncate(off, err)
		}
		l.applyRecord(typ, key, recRef{seg: name, off: off, size: size, typ: typ})
		off += size
	}
}

// applyRecord folds one replayed/committed record into the index.
// Caller holds mu (or is the single-threaded replay).
func (l *Log) applyRecord(typ byte, key string, ref recRef) {
	switch typ {
	case TypeTombstone:
		delete(l.index, key)
	case TypeBundle, TypeQuarantine:
		if typ == TypeQuarantine {
			if n := qseqOf(key); n >= l.qseq {
				l.qseq = n + 1
			}
		}
		l.index[key] = ref
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

func fileSize(f *os.File) int64 {
	st, err := f.Stat()
	if err != nil {
		return 0
	}
	return st.Size()
}

// splitRecord parses a record payload into (type, key, body).
func splitRecord(payload []byte) (byte, string, []byte, error) {
	if len(payload) == 0 {
		return 0, "", nil, io.ErrUnexpectedEOF
	}
	typ := payload[0]
	if typ != TypeBundle && typ != TypeTombstone && typ != TypeQuarantine {
		return 0, "", nil, fmt.Errorf("%w: %d", ErrBadType, typ)
	}
	rest := payload[1:]
	n, w := uvarint(rest)
	if w <= 0 || n > maxKeyLen || n > uint64(len(rest)-w) {
		return 0, "", nil, io.ErrUnexpectedEOF
	}
	key := string(rest[w : w+int(n)])
	return typ, key, rest[w+int(n):], nil
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

func appendRecord(dst []byte, typ byte, key string, body []byte) []byte {
	payload := make([]byte, 0, 1+2+len(key)+len(body))
	payload = append(payload, typ)
	payload = appendUvarint(payload, uint64(len(key)))
	payload = append(payload, key...)
	payload = append(payload, body...)
	return binenc.AppendFrame(dst, payload)
}

func appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// Append group-commits one record and returns once it is fsynced. The
// call blocks for at most ~two fsync latencies; under concurrent load
// many Appends share each fsync.
func (l *Log) Append(typ byte, key string, body []byte) error {
	if typ != TypeBundle && typ != TypeTombstone && typ != TypeQuarantine {
		return fmt.Errorf("%w: %d", ErrBadType, typ)
	}
	if len(key) > maxKeyLen {
		return errKeyTooLarge
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if typ == TypeQuarantine && key == "" {
		key = fmt.Sprintf("q!%016d", l.qseq)
		l.qseq++
	}
	if key == "" {
		l.mu.Unlock()
		return ErrEmptyKey
	}
	op := &pendingOp{frame: appendRecord(nil, typ, key, body), key: key, typ: typ, done: make(chan error, 1)}
	l.queue = append(l.queue, op)
	if l.committing {
		l.mu.Unlock() // a leader is in flight; it will pick us up
	} else {
		l.committing = true
		l.commitLoop() // unlocks mu
	}
	return <-op.done
}

// AppendBundle appends a content-key-addressed bundle record.
func (l *Log) AppendBundle(key string, payload []byte) error {
	return l.Append(TypeBundle, key, payload)
}

// AppendQuarantine appends a rejected upload; the log assigns the key.
func (l *Log) AppendQuarantine(line []byte) error {
	return l.Append(TypeQuarantine, "", line)
}

// Tombstone kills key: replay and Scan stop surfacing it and compaction
// reclaims its bytes.
func (l *Log) Tombstone(key string) error {
	return l.Append(TypeTombstone, key, nil)
}

// commitLoop runs as the commit leader. Called with mu held and
// committing set; returns with mu released. Even after Close is
// observed the loop drains every queued op (each gets an ack), because
// Append stops admitting new ops once closed is set.
func (l *Log) commitLoop() {
	for {
		batch := l.queue
		l.queue = nil
		l.mu.Unlock()

		l.ioMu.Lock()
		refs, rotated, err := l.writeBatch(batch)
		l.ioMu.Unlock()

		l.mu.Lock()
		if err == nil {
			for i, op := range batch {
				prev, had := l.index[op.key]
				l.applyRecord(op.typ, op.key, refs[i])
				liveDelta := refs[i].size
				if op.typ == TypeTombstone {
					liveDelta = 0 // a tombstone's own bytes are born dead
				}
				l.bumpSeg(refs[i].seg, refs[i].size, liveDelta)
				if had && op.typ != TypeQuarantine {
					// Superseded duplicate or tombstoned target: its
					// bytes just became reclaimable.
					l.bumpSeg(prev.seg, 0, -prev.size)
				}
			}
			l.stats.Appends += int64(len(batch))
			l.stats.Commits++
			mAppends.Add(int64(len(batch)))
			mCommits.Add(1)
			gBatch.Set(float64(len(batch)))
			if rotated {
				l.stats.Rotations++
				mRotate.Add(1)
				l.maybeAutoCompact()
			}
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

// bumpSeg adjusts a segment's byte accounting. Caller holds mu.
func (l *Log) bumpSeg(name string, bytes, live int64) {
	for i := range l.segs {
		if l.segs[i].name == name {
			l.segs[i].bytes += bytes
			l.segs[i].live += live
			return
		}
	}
}

// writeBatch writes all frames of a batch with one write and one fsync,
// rotating the active segment first if it is over budget. Caller holds
// ioMu. Returns the ref of every record.
func (l *Log) writeBatch(batch []*pendingOp) ([]recRef, bool, error) {
	var total int64
	for _, op := range batch {
		total += int64(len(op.frame))
	}
	rotated := false
	if l.curBytes > 0 && l.curBytes+total > l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return nil, false, err
		}
		rotated = true
	}
	buf := make([]byte, 0, total)
	refs := make([]recRef, len(batch))
	off := l.curBytes
	for i, op := range batch {
		refs[i] = recRef{seg: l.curName, off: off, size: int64(len(op.frame)), typ: op.typ}
		off += int64(len(op.frame))
		buf = append(buf, op.frame...)
	}
	if _, err := l.f.Write(buf); err != nil {
		return nil, rotated, fmt.Errorf("seglog: write batch: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return nil, rotated, fmt.Errorf("seglog: fsync: %w", err)
	}
	l.curBytes = off
	return refs, rotated, nil
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
	l.segs = append(l.segs, segInfo{name: next})
	l.mu.Unlock()
	return nil
}

// Scan streams every live record (bundles and quarantine, not
// tombstones) in replay order. The body slice is only valid during the
// callback.
func (l *Log) Scan(fn func(typ byte, key string, body []byte) error) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	live := make(map[string]recRef, len(l.index))
	for k, v := range l.index {
		live[k] = v
	}
	names := make([]string, len(l.segs))
	for i, s := range l.segs {
		names[i] = s.name
	}
	l.mu.Unlock()

	for _, name := range names {
		err := l.scanFile(name, func(typ byte, key string, body []byte, off int64) error {
			ref, ok := live[key]
			if !ok || ref.seg != name || ref.off != off {
				return nil // superseded, tombstoned, or a stale copy
			}
			return fn(typ, key, body)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// errStopScan is a sentinel fn can return to stop scanFile early.
var errStopScan = errors.New("seglog: stop scan")

// scanFile reads one segment front to back. A torn or unparsable tail
// ends the scan silently — for the active segment that is the write
// frontier racing ahead of the index snapshot; sealed segments were
// integrity-checked at Open.
func (l *Log) scanFile(name string, fn func(typ byte, key string, body []byte, off int64) error) error {
	f, err := os.Open(l.segPath(name))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil // compacted away mid-scan
		}
		return fmt.Errorf("seglog: %w", err)
	}
	defer f.Close()
	var off int64
	r := bufReader(f)
	for {
		payload, err := binenc.ReadFrame(r, l.opts.MaxRecordBytes)
		if err != nil {
			if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, binenc.ErrCRCMismatch) {
				return nil
			}
			return fmt.Errorf("seglog: scan %s: %w", name, err)
		}
		size := int64(len(payload)) + binenc.FrameOverhead
		typ, key, body, err := splitRecord(payload)
		if err != nil {
			return nil
		}
		if err := fn(typ, key, body, off); err != nil {
			if errors.Is(err, errStopScan) {
				return nil
			}
			return err
		}
		off += size
	}
}

// Get reads one live record's body by key.
func (l *Log) Get(key string) ([]byte, byte, error) {
	l.mu.Lock()
	ref, ok := l.index[key]
	closed := l.closed
	l.mu.Unlock()
	if closed {
		return nil, 0, ErrClosed
	}
	if !ok {
		return nil, 0, os.ErrNotExist
	}
	f, err := os.Open(l.segPath(ref.seg))
	if err != nil {
		return nil, 0, fmt.Errorf("seglog: %w", err)
	}
	defer f.Close()
	if _, err := f.Seek(ref.off, io.SeekStart); err != nil {
		return nil, 0, fmt.Errorf("seglog: %w", err)
	}
	payload, err := binenc.ReadFrame(f, l.opts.MaxRecordBytes)
	if err != nil {
		return nil, 0, fmt.Errorf("seglog: read %s@%d: %w", ref.seg, ref.off, err)
	}
	typ, gotKey, body, err := splitRecord(payload)
	if err != nil || gotKey != key {
		return nil, 0, fmt.Errorf("seglog: record at %s@%d does not match key %q", ref.seg, ref.off, key)
	}
	return append([]byte(nil), body...), typ, nil
}

// Has reports whether key is live.
func (l *Log) Has(key string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.index[key]
	return ok
}

// maybeAutoCompact arms a background compaction when sealed dead bytes
// cross the configured ratio. Caller holds mu.
func (l *Log) maybeAutoCompact() {
	if !l.opts.AutoCompact || l.compacting || l.closed {
		return
	}
	var dead, total int64
	for _, s := range l.segs[:len(l.segs)-1] {
		dead += s.bytes - s.live
		total += s.bytes
	}
	if total == 0 || float64(dead)/float64(total) < l.opts.CompactRatio {
		return
	}
	l.compacting = true
	go func() {
		defer func() {
			l.mu.Lock()
			l.compacting = false
			l.mu.Unlock()
		}()
		_ = l.compactOwned()
	}()
}

// Compact rewrites the live records of every sealed segment into one
// compacted segment and deletes the originals, reclaiming the bytes of
// superseded bundles, consumed tombstones, and (beyond QuarantineKeep)
// the oldest quarantine records. Appends proceed concurrently —
// compaction reads only sealed (immutable) files.
func (l *Log) Compact() error {
	l.mu.Lock()
	if l.compacting {
		l.mu.Unlock()
		return errCompacting
	}
	l.compacting = true
	l.mu.Unlock()
	defer func() {
		l.mu.Lock()
		l.compacting = false
		l.mu.Unlock()
	}()
	return l.compactOwned()
}

// compactOwned does the work; the compacting flag is owned by the caller.
func (l *Log) compactOwned() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if len(l.segs) <= 1 {
		l.mu.Unlock()
		return nil // nothing sealed
	}
	sealed := make([]string, len(l.segs)-1)
	for i, s := range l.segs[:len(l.segs)-1] {
		sealed[i] = s.name
	}
	live := make(map[string]recRef, len(l.index))
	qLive := 0
	for k, v := range l.index {
		live[k] = v
		if v.typ == TypeQuarantine {
			qLive++
		}
	}
	gen := l.cmpGen
	l.cmpGen++
	l.mu.Unlock()

	qDrop := 0
	if l.opts.QuarantineKeep > 0 && qLive > l.opts.QuarantineKeep {
		qDrop = qLive - l.opts.QuarantineKeep
	}

	newName := cmpName(gen)
	tmp := l.segPath(newName + tmpSuffix)
	out, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("seglog: %w", err)
	}
	type moved struct {
		key      string
		src, dst recRef
	}
	var moves []moved
	var dropped []string
	var outOff int64
	for _, name := range sealed {
		err := l.scanFile(name, func(typ byte, key string, body []byte, off int64) error {
			src, ok := live[key]
			if !ok || src.seg != name || src.off != off {
				return nil // dead: superseded or tombstoned
			}
			if typ == TypeQuarantine && qDrop > 0 {
				qDrop--
				dropped = append(dropped, key)
				return nil
			}
			frame := appendRecord(nil, typ, key, body)
			if _, err := out.Write(frame); err != nil {
				return fmt.Errorf("seglog: compact write: %w", err)
			}
			moves = append(moves, moved{key: key, src: src,
				dst: recRef{seg: newName, off: outOff, size: int64(len(frame)), typ: typ}})
			outOff += int64(len(frame))
			return nil
		})
		if err != nil {
			out.Close()
			os.Remove(tmp)
			return err
		}
	}
	if err := out.Sync(); err != nil {
		out.Close()
		os.Remove(tmp)
		return fmt.Errorf("seglog: compact fsync: %w", err)
	}
	if err := out.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("seglog: compact close: %w", err)
	}
	if err := os.Rename(tmp, l.segPath(newName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("seglog: compact rename: %w", err)
	}

	// Repoint the index at the compacted copies, then delete the
	// originals. A record tombstoned while compaction ran simply keeps
	// its (now dangling) absence: the repoint checks the current ref
	// still equals the copied one. A crash between rename and deletes
	// leaves harmless duplicates — records are immutable per key.
	l.mu.Lock()
	for _, m := range moves {
		if cur, ok := l.index[m.key]; ok && cur == m.src {
			l.index[m.key] = m.dst
		}
	}
	for _, key := range dropped {
		if cur, ok := l.index[key]; ok && sliceHas(sealed, cur.seg) {
			delete(l.index, key)
		}
	}
	newSegs := []segInfo{{name: newName, bytes: outOff, live: outOff}}
	for _, s := range l.segs {
		if !sliceHas(sealed, s.name) {
			newSegs = append(newSegs, s)
		}
	}
	l.segs = newSegs
	l.stats.Compactions++
	mCompact.Add(1)
	l.mu.Unlock()

	for _, name := range sealed {
		if err := os.Remove(l.segPath(name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("seglog: remove compacted %s: %w", name, err)
		}
	}
	return nil
}

func sliceHas(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.stats
	s.Segments = len(l.segs)
	s.LiveRecords = len(l.index)
	for i := 0; i < len(l.segs)-1; i++ {
		s.DeadBytes += l.segs[i].bytes - l.segs[i].live
		s.LiveBytes += l.segs[i].live
	}
	return s
}

// Close waits for the in-flight commit batch to drain and closes the
// active segment. Every previously acked record is already durable;
// Appends racing Close fail with ErrClosed.
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

// bufReader wraps sequential replay reads with a modest buffer.
func bufReader(r io.Reader) io.Reader {
	return &chunkReader{r: r, buf: make([]byte, 64<<10)}
}

type chunkReader struct {
	r   io.Reader
	buf []byte
	off int
	n   int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if c.off == c.n {
		n, err := c.r.Read(c.buf)
		if n == 0 {
			return 0, err
		}
		c.off, c.n = 0, n
	}
	n := copy(p, c.buf[c.off:c.n])
	c.off += n
	return n, nil
}
