package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanRecord is one finished span. Times are nanoseconds since the
// tracer's epoch. Req is the request the span belongs to: a bundle's
// content key, an upload's phone id, or a version hop.
type spanRecord struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

func (r spanRecord) dur() time.Duration { return time.Duration(r.End - r.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a no-op, so a workload calls the
// same code either way and pays one nil check per boundary.
type tracer struct {
	epoch time.Time
	next  atomic.Int64

	mu    sync.Mutex
	spans []spanRecord
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// span is an open span.
type span struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	req    string
	start  time.Time
}

// begin opens a span named name for request req under parent (0 for
// a root).
func (t *tracer) begin(name, req string, parent int64) span {
	if t == nil {
		return span{}
	}
	return span{t: t, id: t.next.Add(1), parent: parent, name: name, req: req, start: time.Now()}
}

// end closes the span and records it.
func (s span) end() {
	if s.t == nil {
		return
	}
	s.t.add(spanRecord{ID: s.id, Parent: s.parent, Name: s.name, Req: s.req,
		Start: int64(s.start.Sub(s.t.epoch)), End: int64(time.Since(s.t.epoch))})
}

// record adds a span whose interval was measured elsewhere (an ack
// observer reports the duration after the fact) and returns its id.
func (t *tracer) record(name, req string, parent int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	id := t.next.Add(1)
	t.add(spanRecord{ID: id, Parent: parent, Name: name, Req: req,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	return id
}

func (t *tracer) add(r spanRecord) {
	t.mu.Lock()
	t.spans = append(t.spans, r)
	t.mu.Unlock()
}

// records returns a copy of every finished span, ordered by id.
func (t *tracer) records() []spanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]spanRecord(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// adoptByRequest gives every root span named one of orphans the
// enclosing span of the same request named parentName as its parent.
// Server-side spans run on the server's goroutines and cannot see the
// client span that caused them; the shared request id (the bundle's
// content key) joins them after the run.
func adoptByRequest(spans []spanRecord, parentName string, orphans ...string) {
	byReq := make(map[string]int)
	for i, s := range spans {
		if s.Name == parentName && s.Req != "" {
			byReq[s.Req] = i
		}
	}
	isOrphan := make(map[string]bool, len(orphans))
	for _, n := range orphans {
		isOrphan[n] = true
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 || !isOrphan[s.Name] {
			continue
		}
		if j, ok := byReq[s.Req]; ok {
			s.Parent = spans[j].ID
		}
	}
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover (overlapping children count
// once).
func selfTimes(spans []spanRecord) map[int64]time.Duration {
	kids := make(map[int64][]spanRecord)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the union of children
// covers.
func covered(parent spanRecord, children []spanRecord) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Name      string
	Count     int
	P50, Tail time.Duration
	SelfP50   time.Duration
	SelfTotal time.Duration
}

// spanStats aggregates spans by name, sorted by name.
func spanStats(spans []spanRecord) []spanStat {
	self := selfTimes(spans)
	durs := make(map[string][]float64)
	selfs := make(map[string][]float64)
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.dur()))
		selfs[s.Name] = append(selfs[s.Name], float64(self[s.ID]))
	}
	var out []spanStat
	for name, ds := range durs {
		d := summarize(ds)
		st := spanStat{Name: name, Count: d.N, P50: time.Duration(d.P50), Tail: time.Duration(d.Tail),
			SelfP50: time.Duration(median(selfs[name]))}
		for _, v := range selfs[name] {
			st.SelfTotal += time.Duration(v)
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// durationsOf returns the durations of the spans named name, in ms
// or µs as scale says (the divisor in nanoseconds).
func durationsOf(spans []spanRecord, name string, scale time.Duration) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/float64(scale))
		}
	}
	return out
}

// selfOf returns the self times of the spans named name, scaled.
func selfOf(spans []spanRecord, name string, scale time.Duration) []float64 {
	self := selfTimes(spans)
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(self[s.ID])/float64(scale))
		}
	}
	return out
}

// writeSpans writes a header line (the machine fingerprint) and one
// JSON line per span.
func writeSpans(path string, header any, spans []spanRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}
