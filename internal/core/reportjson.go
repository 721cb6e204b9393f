package core

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// Report encoding from cached per-trace fragments. A served report is
// json.Marshal of the whole Report, but between two re-analyses most of
// it does not move: a trace's Step-1 head (identity and events, most of
// the bytes) never changes while the trace is in the corpus, its tail
// (Steps 3–4) changes only when one of its bases moved, and only the
// rank column follows every multiset change. ReportJSON therefore keeps
// each trace's encoding as three fragments on its traceEntry, each with
// the SHA-256 of its bytes, encodes and hashes only the ones a refresh
// dropped, and returns a ReportBody that shares the fragments instead
// of copying them into one buffer. The body's digest, which the serving
// layer's ETag is cut from, hashes the fragments' digests, so it too
// costs the change, not the corpus.
//
// Byte identity with json.Marshal(report) holds because every value is
// either encoded by encoding/json, exactly as json.Marshal encodes it,
// with only the field names and their order written here from the
// lists below, or written by hand with encoding/json's rules. Two parts
// are written by hand, because they are the bulk of the bytes: the
// heads (identity strings and events), most of a cold load, and the
// float columns (rank, normPower, amplitude), most of a flush. Their
// escaping, float formatting and null-versus-[] follow encoding/json
// without its reflection, and FuzzHeadFragmentMatchesMarshal and
// TestFloatColumnsMatchMarshal pin their bytes and errors to
// json.Marshal's.

var (
	mFragHead = obs.Default.CounterWith("core_report_fragments_encoded_total", "part", "head",
		"per-trace report JSON fragments encoded by IncrementalAnalyzer.ReportJSON")
	mFragRank = obs.Default.CounterWith("core_report_fragments_encoded_total", "part", "rank",
		"per-trace report JSON fragments encoded by IncrementalAnalyzer.ReportJSON")
	mFragTail = obs.Default.CounterWith("core_report_fragments_encoded_total", "part", "tail",
		"per-trace report JSON fragments encoded by IncrementalAnalyzer.ReportJSON")
	hReportEncode = obs.Default.Histogram("core_report_encode_seconds",
		"wall time IncrementalAnalyzer.ReportJSON spends encoding and hashing the fragments a refresh dropped and digesting the report body", nil)
)

// The writer's hand-written field lists: the JSON keys of Report,
// AnalyzedTrace and the event types in a head, in struct order.
// Report's last key, skipped, is omitempty. TestReportJSONFieldList
// pins every list to the struct tags, so a new field cannot silently
// go missing from served bytes.
var (
	reportKeys = []string{"appId", "totalTraces", "traces", "impacted", "impactedTraces", "skipped"}
	traceKeys  = []string{"traceId", "userId", "device", "events", "rank", "normPower", "amplitude", "fence", "manifestations", "windowKeys"}
	// The keys of EventPower, trace.Instance and trace.EventKey, which
	// the head writes each event with.
	eventKeys    = []string{"instance", "powerMilliwatts"}
	instanceKeys = []string{"key", "startMillis", "endMillis"}
	eventKeyKeys = []string{"class", "callback"}
	// headParts and eventParts are the literal bytes before each value
	// a head writes: a trace's three identity strings and its events,
	// and an event's class, callback, startMillis, endMillis and power.
	headParts = [...]string{
		`"` + traceKeys[0] + `":`,
		`,"` + traceKeys[1] + `":`,
		`,"` + traceKeys[2] + `":`,
		`,"` + traceKeys[3] + `":`,
	}
	eventParts = [...]string{
		`{"` + eventKeys[0] + `":{"` + instanceKeys[0] + `":{"` + eventKeyKeys[0] + `":`,
		`,"` + eventKeyKeys[1] + `":`,
		`},"` + instanceKeys[1] + `":`,
		`,"` + instanceKeys[2] + `":`,
		`},"` + eventKeys[1] + `":`,
	}
)

// fragmentWriter encodes fragments through one reused buffer, so
// encoding a cold corpus costs about what one json.Marshal of the whole
// report does rather than one growing allocation per member.
// json.Encoder with its default HTML escaping writes exactly
// json.Marshal's bytes plus a newline, which members drops.
type fragmentWriter struct {
	buf bytes.Buffer
	enc *json.Encoder
}

func newFragmentWriter() *fragmentWriter {
	w := &fragmentWriter{}
	w.enc = json.NewEncoder(&w.buf)
	return w
}

// key appends `"k":`, preceded by a comma unless the buffer ends with
// an object's opening brace.
func (w *fragmentWriter) key(k string) {
	if b := w.buf.Bytes(); len(b) == 0 || b[len(b)-1] != '{' {
		w.buf.WriteByte(',')
	}
	w.buf.WriteByte('"')
	w.buf.WriteString(k)
	w.buf.WriteString(`":`)
}

// members appends one `"key":value` object member per key.
func (w *fragmentWriter) members(keys []string, vals ...any) error {
	for i, k := range keys {
		w.key(k)
		if err := w.enc.Encode(vals[i]); err != nil {
			return err
		}
		w.buf.Truncate(w.buf.Len() - 1) // Encode's trailing newline
	}
	return nil
}

// floats appends the member `"k":[…]` for a float column, with
// encoding/json's bytes but without its reflection. A column holding a
// non-finite value goes through members, which returns encoding/json's
// error for it.
func (w *fragmentWriter) floats(k string, xs []float64) error {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return w.members([]string{k}, xs)
		}
	}
	w.key(k)
	if xs == nil {
		w.buf.WriteString("null")
		return nil
	}
	b := append(w.buf.AvailableBuffer(), '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = trace.AppendJSONFloat(b, x)
	}
	w.buf.Write(append(b, ']'))
	return nil
}

// fragment is one encoded piece of a report body with the SHA-256 of
// its bytes, computed once when it is encoded. It is never written
// after that, so cache entries and report bodies share it.
type fragment struct {
	data []byte
	sum  [sha256.Size]byte
}

// take returns the buffer as a fragment — an exactly-sized copy and its
// digest — and resets it.
func (w *fragmentWriter) take() *fragment {
	f := &fragment{data: bytes.Clone(w.buf.Bytes())}
	f.sum = sha256.Sum256(f.data)
	w.buf.Reset()
	return f
}

// head encodes `{"traceId":…,"userId":…,"device":…,"events":[…]`
// with encoding/json's bytes but without its reflection: the strings
// through trace.AppendJSONString, the times through strconv and the
// powers through trace.AppendJSONFloat. Heads are most of a report's
// bytes and every one is encoded on a cold load. A trace holding a
// non-finite power goes through members, which returns encoding/json's
// error for it. FuzzHeadFragmentMatchesMarshal pins the bytes and the
// error to json.Marshal's.
func (w *fragmentWriter) head(at *AnalyzedTrace) (*fragment, error) {
	w.buf.WriteByte('{')
	for i := range at.Events {
		if p := at.Events[i].PowerMW; math.IsNaN(p) || math.IsInf(p, 0) {
			if err := w.members(traceKeys[:4], at.TraceID, at.UserID, at.Device, at.Events); err != nil {
				return nil, err
			}
			return w.take(), nil
		}
	}
	b := append(w.buf.AvailableBuffer(), headParts[0]...)
	b = trace.AppendJSONString(b, at.TraceID)
	b = append(b, headParts[1]...)
	b = trace.AppendJSONString(b, at.UserID)
	b = append(b, headParts[2]...)
	b = trace.AppendJSONString(b, at.Device)
	b = append(b, headParts[3]...)
	if at.Events == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range at.Events {
			ev := &at.Events[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, eventParts[0]...)
			b = trace.AppendJSONString(b, ev.Instance.Key.Class)
			b = append(b, eventParts[1]...)
			b = trace.AppendJSONString(b, ev.Instance.Key.Callback)
			b = append(b, eventParts[2]...)
			b = strconv.AppendInt(b, ev.Instance.StartMS, 10)
			b = append(b, eventParts[3]...)
			b = strconv.AppendInt(b, ev.Instance.EndMS, 10)
			b = append(b, eventParts[4]...)
			b = trace.AppendJSONFloat(b, ev.PowerMW)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	w.buf.Write(b)
	return w.take(), nil
}

// rank encodes `,"rank":[…]`.
func (w *fragmentWriter) rank(at *AnalyzedTrace) (*fragment, error) {
	if err := w.floats(traceKeys[4], at.Rank); err != nil {
		return nil, err
	}
	return w.take(), nil
}

// tail encodes `,"normPower":…,"amplitude":…,"fence":…,
// "manifestations":…,"windowKeys":…}`.
func (w *fragmentWriter) tail(at *AnalyzedTrace) (*fragment, error) {
	if err := w.floats(traceKeys[5], at.NormPower); err != nil {
		return nil, err
	}
	if err := w.floats(traceKeys[6], at.Amplitude); err != nil {
		return nil, err
	}
	if err := w.members(traceKeys[7:], at.Fence, at.Manifestations, at.WindowKeys); err != nil {
		return nil, err
	}
	w.buf.WriteByte('}')
	return w.take(), nil
}

// fragmentsLocked encodes the fragments the entries are missing and
// returns every entry's three fragments in corpus order. Above one
// chunk of entries (refreshChunks) the encode and hash fan out over
// workers, each chunk through its own writer into its own slots; w
// encodes a single chunk inline. Callers hold ia.mu; the returned
// fragments may be read after releasing it, because a refresh drops a
// fragment and a later call encodes a new one — no fragment is ever
// written to after it is cached.
func fragmentsLocked(w *fragmentWriter, entries []*traceEntry, workers int) ([]*fragment, error) {
	frags := make([]*fragment, 3*len(entries))
	k := refreshChunks(workers, len(entries))
	if k == 1 {
		return frags, w.encodeMissing(entries, frags)
	}
	err := forChunks(workers, len(entries), k, func(lo, hi int) error {
		return newFragmentWriter().encodeMissing(entries[lo:hi], frags[3*lo:3*hi])
	})
	return frags, err
}

// encodeMissing encodes and caches the fragments the entries are
// missing and writes every entry's three fragments to out, in order.
// Concurrent calls take disjoint entries and slots.
func (w *fragmentWriter) encodeMissing(entries []*traceEntry, out []*fragment) error {
	var heads, ranks, tails int64
	defer func() {
		mFragHead.Add(heads)
		mFragRank.Add(ranks)
		mFragTail.Add(tails)
	}()
	for i, e := range entries {
		if e.head == nil {
			head, err := w.head(e.at)
			if err != nil {
				return err
			}
			e.head = head
			heads++
		}
		if e.rank == nil {
			rank, err := w.rank(e.at)
			if err != nil {
				return err
			}
			e.rank = rank
			ranks++
		}
		if e.tail == nil {
			tail, err := w.tail(e.at)
			if err != nil {
				return err
			}
			e.tail = tail
			tails++
		}
		out[3*i], out[3*i+1], out[3*i+2] = e.head, e.rank, e.tail
	}
	return nil
}

// body wraps the trace fragments (three per trace, in report.Traces
// order) in the report's envelope and digests the whole. The envelope
// is encoded after the fragments, so an encoding error is the one
// json.Marshal meets first: the members before "traces" cannot fail.
func (w *fragmentWriter) body(report *Report, frags []*fragment) (*ReportBody, error) {
	w.buf.WriteByte('{')
	if err := w.members(reportKeys[:2], report.AppID, report.TotalTraces); err != nil {
		return nil, err
	}
	w.buf.WriteString(`,"` + reportKeys[2] + `":`)
	if report.Traces == nil {
		w.buf.WriteString("null")
	} else {
		w.buf.WriteByte('[')
	}
	open := w.take()
	if report.Traces != nil {
		w.buf.WriteByte(']')
	}
	if err := w.members(reportKeys[3:5], report.Impacted, report.ImpactedTraces); err != nil {
		return nil, err
	}
	if len(report.Skipped) > 0 {
		if err := w.members(reportKeys[5:], report.Skipped); err != nil {
			return nil, err
		}
	}
	w.buf.WriteByte('}')
	b := &ReportBody{open: open, frags: frags, close: w.take()}

	h := sha256.New()
	h.Write(b.open.sum[:])
	b.size = len(b.open.data) + len(b.close.data)
	if n := len(frags) / 3; n > 1 {
		b.size += n - 1 // commas between traces
	}
	for _, f := range frags {
		h.Write(f.sum[:])
		b.size += len(f.data)
	}
	h.Write(b.close.sum[:])
	h.Sum(b.Digest[:0])
	return b, nil
}

// ReportBody is one encoded report: json.Marshal's bytes of it, held
// as the envelope plus the per-trace fragments it shares with the
// analyzer's cache instead of as one contiguous copy. Nothing writes a
// ReportBody after it is built, so any number of readers may write it
// out concurrently, for as long as they hold it.
type ReportBody struct {
	// Digest is SHA-256 over the SHA-256 digests of the body's parts in
	// order: the envelope through the traces key's opening bracket (or
	// null), each trace's head, rank and tail fragments in corpus order,
	// and the rest of the envelope. The parts' digests determine the bytes, so equal
	// digests mean equal bodies — whichever engine encoded them — and a
	// flush hashes only the fragments it re-encoded.
	Digest [sha256.Size]byte

	open, close *fragment
	frags       []*fragment // three per trace
	size        int
}

// Len returns the body's length in bytes.
func (b *ReportBody) Len() int { return b.size }

// reportChunk is the write size WriteTo coalesces fragments into, so a
// 48 MB body reaches the socket in about 200 writes rather than one per
// fragment.
const reportChunk = 256 << 10

// countingWriter counts the bytes its writer accepted.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// WriteTo writes the body to w in reportChunk-sized writes (a fragment
// larger than a chunk goes out in one write of its own), so at most
// Len()/reportChunk + 1 calls reach w. It returns the bytes w accepted
// and the first error w returned.
func (b *ReportBody) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriterSize(cw, min(b.size, reportChunk))
	// bufio keeps the first write error and turns later writes into
	// no-ops, so Flush reports it.
	_, _ = bw.Write(b.open.data)
	for i := 0; i < len(b.frags); i += 3 {
		if i > 0 {
			_ = bw.WriteByte(',')
		}
		_, _ = bw.Write(b.frags[i].data)
		_, _ = bw.Write(b.frags[i+1].data)
		_, _ = bw.Write(b.frags[i+2].data)
	}
	_, _ = bw.Write(b.close.data)
	err := bw.Flush()
	return cw.n, err
}

// EncodeReport encodes any report cold, through the same fragment
// writer ReportJSON uses: the body holds json.Marshal(report)'s bytes,
// and its Digest is what ReportJSON returns for an identical report,
// which makes it the reference encoder tests compare ReportJSON with.
// On an encoding error it returns json.Marshal's error. Every trace in
// report.Traces must be non-nil.
func EncodeReport(report *Report) (*ReportBody, error) {
	w := newFragmentWriter()
	frags := make([]*fragment, 0, 3*len(report.Traces))
	for _, at := range report.Traces {
		head, err := w.head(at)
		if err != nil {
			return nil, err
		}
		rank, err := w.rank(at)
		if err != nil {
			return nil, err
		}
		tail, err := w.tail(at)
		if err != nil {
			return nil, err
		}
		frags = append(frags, head, rank, tail)
	}
	return w.body(report, frags)
}

// ReportJSON does exactly what Report does and also returns the
// report's encoded body, whose bytes are identical to
// json.Marshal(report). The body is built from per-trace fragments
// cached across calls, so a call after one more upload encodes and
// hashes the new trace, the re-ranked rank columns and the tails of
// traces whose bases moved — not the whole corpus — and copies none of
// the rest. Fragments are encoded under the analyzer lock; the envelope
// and digest are built after releasing it.
//
// The report and the body are read-only and shared: the body's
// fragments are the analyzer's cached ones.
//
// On any error — analysis or encoding — both results are nil and the
// error is the one Report followed by json.Marshal would return.
func (ia *IncrementalAnalyzer) ReportJSON() (*Report, *ReportBody, error) {
	ia.mu.Lock()
	report, entries, err := ia.reportLocked()
	if err != nil {
		ia.mu.Unlock()
		return nil, nil, err
	}
	start := time.Now()
	w := newFragmentWriter()
	frags, err := fragmentsLocked(w, entries, ia.a.cfg.Parallelism)
	ia.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	body, err := w.body(report, frags)
	hReportEncode.Observe(time.Since(start).Seconds())
	if err != nil {
		return nil, nil, err
	}
	return report, body, nil
}
