package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	const goroutines, perG = 16, 1000
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
}

func TestCounterAddIgnoresNegative(t *testing.T) {
	c := NewRegistry().Counter("test_total", "")
	c.Add(5)
	c.Add(-3)
	c.Add(0)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d after negative Add, want 5", got)
	}
}

func TestGaugeConcurrent(t *testing.T) {
	const goroutines, perG = 8, 1000
	g := NewRegistry().Gauge("test_depth", "")
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				g.Inc()
				g.Dec()
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 0 {
		t.Errorf("balanced inc/dec gauge = %v, want 0", got)
	}
	g.Set(2.5)
	g.Add(-0.5)
	if got := g.Value(); got != 2 {
		t.Errorf("gauge = %v, want 2", got)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewRegistry().Histogram("test_seconds", "", []float64{1, 2, 5})
	// Prometheus le is inclusive: a value exactly on a bound lands in
	// that bound's bucket, one epsilon above spills into the next.
	for _, v := range []float64{0.5, 1, 1.5, 2, 5, 7} {
		h.Observe(v)
	}
	want := []int64{2, 4, 5, 6} // cumulative: le=1, le=2, le=5, +Inf
	got := h.BucketCounts()
	if len(got) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("cumulative bucket[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if h.Count() != 6 {
		t.Errorf("count = %d, want 6", h.Count())
	}
	if h.Sum() != 17 {
		t.Errorf("sum = %v, want 17", h.Sum())
	}
}

func TestHistogramConcurrent(t *testing.T) {
	const goroutines, perG = 8, 1000
	h := NewRegistry().Histogram("test_seconds", "", nil)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(0.5) // exact in binary, so the sum is exact too
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*perG {
		t.Errorf("count = %d, want %d", got, goroutines*perG)
	}
	if got := h.Sum(); got != goroutines*perG*0.5 {
		t.Errorf("sum = %v, want %v", got, goroutines*perG*0.5)
	}
	cum := h.BucketCounts()
	if last := cum[len(cum)-1]; last != goroutines*perG {
		t.Errorf("+Inf cumulative = %d, want %d", last, goroutines*perG)
	}
}

func TestHistogramDefaultAndBadBuckets(t *testing.T) {
	h := NewRegistry().Histogram("test_seconds", "", nil)
	if got, want := len(h.BucketCounts()), len(DefBuckets)+1; got != want {
		t.Errorf("nil buckets: %d slots, want %d (DefBuckets + +Inf)", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("non-increasing buckets did not panic")
		}
	}()
	NewRegistry().Histogram("test_bad", "", []float64{1, 1})
}

func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_requests_total", "requests served").Add(3)
	r.Gauge("test_temp", "room temperature").Set(1.5)
	h := r.Histogram("test_lat_seconds", "latency", []float64{0.25, 1})
	for _, v := range []float64{0.25, 0.5, 2} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_lat_seconds latency
# TYPE test_lat_seconds histogram
test_lat_seconds_bucket{le="0.25"} 1
test_lat_seconds_bucket{le="1"} 2
test_lat_seconds_bucket{le="+Inf"} 3
test_lat_seconds_sum 2.75
test_lat_seconds_count 3
# HELP test_requests_total requests served
# TYPE test_requests_total counter
test_requests_total 3
# HELP test_temp room temperature
# TYPE test_temp gauge
test_temp 1.5
`
	if got := buf.String(); got != want {
		t.Errorf("Prometheus text mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestJSONExport(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_requests_total", "").Add(7)
	r.Gauge("test_temp", "").Set(-1.5)
	r.Histogram("test_lat_seconds", "", []float64{1}).Observe(0.5)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &obj); err != nil {
		t.Fatalf("JSON export does not parse: %v", err)
	}
	if string(obj["test_requests_total"]) != "7" {
		t.Errorf("counter JSON = %s, want 7", obj["test_requests_total"])
	}
	if string(obj["test_temp"]) != "-1.5" {
		t.Errorf("gauge JSON = %s, want -1.5", obj["test_temp"])
	}
	var hist struct {
		Count   int64   `json:"count"`
		Sum     float64 `json:"sum"`
		Buckets []struct {
			LE    string `json:"le"`
			Count int64  `json:"count"`
		} `json:"buckets"`
	}
	if err := json.Unmarshal(obj["test_lat_seconds"], &hist); err != nil {
		t.Fatal(err)
	}
	if hist.Count != 1 || hist.Sum != 0.5 {
		t.Errorf("histogram JSON count=%d sum=%v, want 1/0.5", hist.Count, hist.Sum)
	}
	if len(hist.Buckets) != 2 || hist.Buckets[1].LE != "+Inf" {
		t.Errorf("histogram JSON buckets = %+v", hist.Buckets)
	}
}

func TestRegisterIdempotentAndKindClash(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("test_total", "first")
	b := r.Counter("test_total", "second registration ignored")
	if a != b {
		t.Error("re-registering the same counter returned a different instance")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind clash did not panic")
		}
	}()
	r.Gauge("test_total", "")
}

func TestInvalidMetricName(t *testing.T) {
	for _, name := range []string{"", "9leading", "has space", "dash-ed"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", name)
				}
			}()
			NewRegistry().Counter(name, "")
		}()
	}
}

func TestGaugeFuncReplace(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("test_live", "", func() float64 { return 1 })
	r.GaugeFunc("test_live", "", func() float64 { return 2 })
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "test_live 2\n") {
		t.Errorf("re-registered gauge func not replaced:\n%s", buf.String())
	}
}

func TestCounterWithLabels(t *testing.T) {
	r := NewRegistry()
	r.CounterWith("test_parts_total", "part", "tail", "parts encoded").Add(2)
	r.CounterWith("test_parts_total", "part", "head", "parts encoded").Inc()
	if a, b := r.CounterWith("test_parts_total", "part", "head", ""), r.CounterWith("test_parts_total", "part", "head", ""); a != b {
		t.Error("re-registering the same series returned a different instance")
	}
	r.Counter("test_parts_totals", "a longer family name").Inc()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_parts_total parts encoded
# TYPE test_parts_total counter
test_parts_total{part="head"} 1
test_parts_total{part="tail"} 2
# HELP test_parts_totals a longer family name
# TYPE test_parts_totals counter
test_parts_totals 1
`
	if got := buf.String(); got != want {
		t.Errorf("Prometheus text mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if v, ok := r.Value(`test_parts_total{part="tail"}`); !ok || v != 2 {
		t.Errorf("Value of a labeled series = %v, %v; want 2, true", v, ok)
	}
	for _, bad := range [][3]string{{"test_total", "has space", "v"}, {"test_total", "part", `quo"te`}, {"test_total", "part", "new\nline"}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("series %q did not panic", bad)
				}
			}()
			r.CounterWith(bad[0], bad[1], bad[2], "")
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("a label set in a histogram name did not panic")
		}
	}()
	r.Histogram(`test_seconds{part="head"}`, "", nil)
}
