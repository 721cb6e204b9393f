package core

import (
	"bytes"
	"encoding/json"
	"time"

	"repro/internal/obs"
)

// Report encoding from cached per-trace fragments. A served report is
// json.Marshal of the whole Report, but between two re-analyses most of
// it does not move: a trace's Step-1 head (identity and events, most of
// the bytes) never changes while the trace is in the corpus, its tail
// (Steps 3–4) changes only when one of its bases moved, and only the
// rank column follows every multiset change. ReportJSON therefore keeps
// each trace's encoding as three fragments on its traceEntry, encodes
// only the ones a refresh dropped, and concatenates.
//
// Byte identity with json.Marshal(report) holds because every value is
// still encoded by encoding/json, exactly as json.Marshal encodes it —
// escaping, float formatting and null-versus-[] stay encoding/json's
// own — and only the field names and their order are written here,
// from the lists below.

var (
	mFragHead = obs.Default.CounterWith("core_report_fragments_encoded_total", "part", "head",
		"per-trace report JSON fragments encoded by IncrementalAnalyzer.ReportJSON")
	mFragRank = obs.Default.CounterWith("core_report_fragments_encoded_total", "part", "rank",
		"per-trace report JSON fragments encoded by IncrementalAnalyzer.ReportJSON")
	mFragTail = obs.Default.CounterWith("core_report_fragments_encoded_total", "part", "tail",
		"per-trace report JSON fragments encoded by IncrementalAnalyzer.ReportJSON")
	hReportEncode = obs.Default.Histogram("core_report_encode_seconds",
		"wall time IncrementalAnalyzer.ReportJSON spends encoding fragments and assembling the report body", nil)
)

// The writer's hand-written field lists: the JSON keys of Report and
// AnalyzedTrace in struct order. Report's last key, skipped, is
// omitempty. TestReportJSONFieldList pins both lists to the struct
// tags, so a new field cannot silently go missing from served bytes.
var (
	reportKeys = []string{"appId", "totalTraces", "traces", "impacted", "impactedTraces", "skipped"}
	traceKeys  = []string{"traceId", "userId", "device", "events", "rank", "normPower", "amplitude", "fence", "manifestations", "windowKeys"}
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

// members appends one `"key":value` object member per key, each
// preceded by a comma unless the buffer ends with an object's opening
// brace.
func (w *fragmentWriter) members(keys []string, vals ...any) error {
	for i, k := range keys {
		if b := w.buf.Bytes(); len(b) == 0 || b[len(b)-1] != '{' {
			w.buf.WriteByte(',')
		}
		w.buf.WriteByte('"')
		w.buf.WriteString(k)
		w.buf.WriteString(`":`)
		if err := w.enc.Encode(vals[i]); err != nil {
			return err
		}
		w.buf.Truncate(w.buf.Len() - 1) // Encode's trailing newline
	}
	return nil
}

// take returns an exactly-sized copy of the buffer and resets it.
func (w *fragmentWriter) take() []byte {
	out := bytes.Clone(w.buf.Bytes())
	w.buf.Reset()
	return out
}

// head encodes `{"traceId":…,"userId":…,"device":…,"events":[…]`.
func (w *fragmentWriter) head(at *AnalyzedTrace) ([]byte, error) {
	w.buf.WriteByte('{')
	if err := w.members(traceKeys[:4], at.TraceID, at.UserID, at.Device, at.Events); err != nil {
		return nil, err
	}
	return w.take(), nil
}

// rank encodes `,"rank":[…]`.
func (w *fragmentWriter) rank(at *AnalyzedTrace) ([]byte, error) {
	if err := w.members(traceKeys[4:5], at.Rank); err != nil {
		return nil, err
	}
	return w.take(), nil
}

// tail encodes `,"normPower":…,"amplitude":…,"fence":…,
// "manifestations":…,"windowKeys":…}`.
func (w *fragmentWriter) tail(at *AnalyzedTrace) ([]byte, error) {
	if err := w.members(traceKeys[5:], at.NormPower, at.Amplitude, at.Fence, at.Manifestations, at.WindowKeys); err != nil {
		return nil, err
	}
	w.buf.WriteByte('}')
	return w.take(), nil
}

// fragmentsLocked encodes the fragments the entries are missing and
// returns every entry's three fragments in corpus order. Callers hold
// ia.mu; the returned slices may be read after releasing it, because a
// refresh drops a fragment and a later call encodes a new one — no
// fragment is ever written to after it is cached.
func fragmentsLocked(entries []*traceEntry) ([][]byte, error) {
	frags := make([][]byte, 0, 3*len(entries))
	var heads, ranks, tails int64
	defer func() {
		mFragHead.Add(heads)
		mFragRank.Add(ranks)
		mFragTail.Add(tails)
	}()
	w := newFragmentWriter()
	for _, e := range entries {
		if e.head == nil {
			head, err := w.head(e.at)
			if err != nil {
				return nil, err
			}
			e.head = head
			heads++
		}
		if e.rank == nil {
			rank, err := w.rank(e.at)
			if err != nil {
				return nil, err
			}
			e.rank = rank
			ranks++
		}
		if e.tail == nil {
			tail, err := w.tail(e.at)
			if err != nil {
				return nil, err
			}
			e.tail = tail
			tails++
		}
		frags = append(frags, e.head, e.rank, e.tail)
	}
	return frags, nil
}

// assembleReport writes the report body around the trace fragments
// (three per trace, in report.Traces order): the envelope members go
// through a fragmentWriter, and everything is copied into one
// exactly-sized buffer.
func assembleReport(report *Report, frags [][]byte) ([]byte, error) {
	w := newFragmentWriter()
	w.buf.WriteByte('{')
	if err := w.members(reportKeys[:2], report.AppID, report.TotalTraces); err != nil {
		return nil, err
	}
	pre := w.take()
	if err := w.members(reportKeys[3:5], report.Impacted, report.ImpactedTraces); err != nil {
		return nil, err
	}
	if len(report.Skipped) > 0 {
		if err := w.members(reportKeys[5:], report.Skipped); err != nil {
			return nil, err
		}
	}
	w.buf.WriteByte('}')
	post := w.take()

	tracesKey := `,"` + reportKeys[2] + `":[`
	size := len(pre) + len(tracesKey) + len(frags)/3 + len(post) // commas and ']' included
	for _, f := range frags {
		size += len(f)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, pre...)
	buf = append(buf, tracesKey...)
	for i := 0; i < len(frags); i += 3 {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, frags[i]...)
		buf = append(buf, frags[i+1]...)
		buf = append(buf, frags[i+2]...)
	}
	buf = append(buf, ']')
	return append(buf, post...), nil
}

// ReportJSON does exactly what Report does and also returns the
// report's JSON, byte-identical to json.Marshal(report). The body is
// assembled from per-trace fragments cached across calls, so a call
// after one more upload encodes the new trace, the re-ranked rank
// columns and the tails of traces whose bases moved — not the whole
// corpus. Fragments are encoded under the analyzer lock and
// concatenated after releasing it. A corpus on the full-replay
// fallback (non-finite Step-1 powers) is encoded with json.Marshal.
//
// The report is read-only and shared, as Report's is; the bytes are the
// caller's own.
//
// On any error — analysis or encoding — both results are nil and the
// error is the one Report followed by json.Marshal would return.
func (ia *IncrementalAnalyzer) ReportJSON() (*Report, []byte, error) {
	ia.mu.Lock()
	report, entries, err := ia.reportLocked()
	if err != nil {
		ia.mu.Unlock()
		return nil, nil, err
	}
	start := time.Now()
	var frags [][]byte
	if entries != nil {
		frags, err = fragmentsLocked(entries)
	}
	ia.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	var data []byte
	if entries == nil {
		data, err = json.Marshal(report)
	} else {
		data, err = assembleReport(report, frags)
	}
	hReportEncode.Observe(time.Since(start).Seconds())
	if err != nil {
		return nil, nil, err
	}
	return report, data, nil
}
