package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/trace"
)

// TestReportJSONFieldList pins the fragment writer's hand-written field
// lists to the json tags of Report and AnalyzedTrace: a field added,
// renamed, reordered or retagged there must be mirrored in the writer,
// or served bytes would silently drop it.
func TestReportJSONFieldList(t *testing.T) {
	for _, tc := range []struct {
		typ       reflect.Type
		keys      []string
		omitempty []string
	}{
		{reflect.TypeOf(Report{}), reportKeys, []string{"skipped"}},
		{reflect.TypeOf(AnalyzedTrace{}), traceKeys, nil},
	} {
		var names, omit []string
		for i := 0; i < tc.typ.NumField(); i++ {
			f := tc.typ.Field(i)
			if !f.IsExported() {
				continue
			}
			tag, ok := f.Tag.Lookup("json")
			if !ok {
				t.Errorf("%s.%s has no json tag; the writer's field list cannot name it", tc.typ.Name(), f.Name)
				continue
			}
			name, opts, _ := strings.Cut(tag, ",")
			if name == "-" {
				continue
			}
			names = append(names, name)
			switch opts {
			case "":
			case "omitempty":
				omit = append(omit, name)
			default:
				t.Errorf("%s.%s: json tag option %q is not handled by the fragment writer", tc.typ.Name(), f.Name, opts)
			}
		}
		if !slices.Equal(names, tc.keys) {
			t.Errorf("%s JSON fields %q, fragment writer writes %q", tc.typ.Name(), names, tc.keys)
		}
		if !slices.Equal(omit, tc.omitempty) {
			t.Errorf("%s omitempty fields %q, fragment writer omits %q", tc.typ.Name(), omit, tc.omitempty)
		}
	}
}

// writeCounter records what WriteTo hands it and how many calls it
// took; with fail set it accepts only the first limit bytes and then
// fails.
type writeCounter struct {
	buf   bytes.Buffer
	calls int
	fail  bool
	limit int
}

var errWriteFailed = errors.New("write failed")

func (w *writeCounter) Write(p []byte) (int, error) {
	w.calls++
	if w.fail && w.buf.Len()+len(p) > w.limit {
		n := w.limit - w.buf.Len()
		w.buf.Write(p[:n])
		return n, errWriteFailed
	}
	return w.buf.Write(p)
}

// TestReportBodyWriteTo pins ReportBody's writer contract on a body of
// several chunks that also holds one fragment larger than a chunk: it
// writes exactly Len() bytes, json.Marshal's, in at most
// Len()/reportChunk + 2 calls; a writer failing mid-body stops it with
// that writer's error and the count of bytes it accepted.
func TestReportBodyWriteTo(t *testing.T) {
	a, err := NewAnalyzer(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	small, err := a.Analyze(multiDeviceCorpus(t, 71).Bundles)
	if err != nil {
		t.Fatal(err)
	}
	// Repeat the traces into a multi-chunk report, with one trace whose
	// events alone outgrow a chunk.
	report := *small
	report.Traces = nil
	for i := 0; i < 20; i++ {
		report.Traces = append(report.Traces, small.Traces...)
	}
	big := *small.Traces[0]
	for len(big.Events) < 4*reportChunk/100 {
		big.Events = append(big.Events, small.Traces[0].Events...)
	}
	report.Traces = append(report.Traces, &big)
	want, err := json.Marshal(&report)
	if err != nil {
		t.Fatal(err)
	}
	body, err := EncodeReport(&report)
	if err != nil {
		t.Fatal(err)
	}
	if body.Len() != len(want) || len(want) < 4*reportChunk {
		t.Fatalf("Len() = %d for a %d-byte report, want equal and several %d-byte chunks", body.Len(), len(want), reportChunk)
	}

	var w writeCounter
	n, err := body.WriteTo(&w)
	if err != nil || n != int64(body.Len()) {
		t.Fatalf("WriteTo = (%d, %v), want (%d, nil)", n, err, body.Len())
	}
	if !bytes.Equal(w.buf.Bytes(), want) {
		t.Fatal("WriteTo bytes differ from json.Marshal of the report")
	}
	if limit := body.Len()/reportChunk + 2; w.calls > limit {
		t.Fatalf("WriteTo made %d writes for %d bytes, want at most %d", w.calls, body.Len(), limit)
	}

	for _, limit := range []int{0, 1000, reportChunk + 7, body.Len() - 1} {
		fw := writeCounter{fail: true, limit: limit}
		n, err := body.WriteTo(&fw)
		if !errors.Is(err, errWriteFailed) || n != int64(limit) {
			t.Fatalf("writer failing after %d bytes: WriteTo = (%d, %v), want (%d, %v)", limit, n, err, limit, errWriteFailed)
		}
		if !bytes.Equal(fw.buf.Bytes(), want[:limit]) {
			t.Fatalf("writer failing after %d bytes got bytes that are not the body's prefix", limit)
		}
	}

	// The envelope's edge cases encode as json.Marshal does too.
	for _, r := range []*Report{
		{AppID: "nil-traces"},
		{AppID: "no-traces", Traces: []*AnalyzedTrace{}},
		{AppID: "skipped", Traces: small.Traces[:1], Skipped: []SkippedTrace{{Index: 1, TraceID: "t", Reason: "bad <input>"}}},
	} {
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		body, err := EncodeReport(r)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if _, err := body.WriteTo(&got); err != nil || !bytes.Equal(got.Bytes(), want) || body.Len() != len(want) {
			t.Fatalf("%s: EncodeReport wrote %s (Len %d, err %v), json.Marshal %s", r.AppID, got.Bytes(), body.Len(), err, want)
		}
	}
}

// TestFloatColumnsMatchMarshal pins the fragment writer's float
// columns to encoding/json: every value — the whole and half ranks the
// shortcut writes, their edges, and floats of every magnitude and sign
// — encodes to json.Marshal's bytes, a nil column to null, and a
// column with a non-finite value fails with json.Marshal's error.
func TestFloatColumnsMatchMarshal(t *testing.T) {
	xs := []float64{
		0, math.Copysign(0, -1), 0.5, 1, 1.5, 2, 2.25, 7.5, 1e15 + 0.5,
		1<<52 - 0.5, 1 << 52, 1<<52 + 1, 1<<53 + 2, 1e20, 1e21, 1.5e21, 1e-6, 9.99e-7, 1e-7, 1.234e-300,
		-1, -1.5, -0.5, -1e-7, -1e21, math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20000; i++ {
		switch i % 4 {
		case 0: // a mean-of-ties rank
			xs = append(xs, float64(rng.Intn(1<<20))/2+1)
		case 1:
			xs = append(xs, rng.Float64()*math.Pow(10, float64(rng.Intn(50)-25)))
		case 2:
			xs = append(xs, -rng.ExpFloat64())
		default:
			xs = append(xs, math.Float64frombits(rng.Uint64()))
		}
	}
	var finite []float64
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		finite = append(finite, x)
		want, err := json.Marshal(x)
		if err != nil {
			t.Fatal(err)
		}
		if got := trace.AppendJSONFloat(nil, x); !bytes.Equal(got, want) {
			t.Fatalf("AppendJSONFloat(%v) = %s, json.Marshal = %s", x, got, want)
		}
	}
	for _, col := range [][]float64{finite, nil, {}, {1, math.NaN()}, {math.Inf(-1)}} {
		w := newFragmentWriter()
		w.buf.WriteByte('{')
		err := w.floats("rank", col)
		want, wantErr := json.Marshal(map[string][]float64{"rank": col})
		switch {
		case wantErr != nil:
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("floats(%v) error %v, json.Marshal error %v", col, err, wantErr)
			}
		case err != nil:
			t.Fatalf("floats(%v): %v", col, err)
		default:
			w.buf.WriteByte('}')
			if !bytes.Equal(w.buf.Bytes(), want) {
				t.Fatalf("floats column of %d values differs from json.Marshal", len(col))
			}
		}
	}
}
