package main

import "testing"

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 50}, {1, 50}, {19, 50}, // no percentile has ten beyond: the median
		{20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestSummarizeSmallSampleFallsBackToMedian(t *testing.T) {
	d := summarize([]float64{5, 1, 3})
	if d.N != 3 || d.P50 != 3 || d.Tail != 3 || d.TailAt != 50 {
		t.Fatalf("summarize(3 samples) = %+v, want median 3 reported as a p50 tail", d)
	}
	if d := summarize(nil); d.N != 0 || d.P50 != 0 || d.Tail != 0 {
		t.Fatalf("summarize(nil) = %+v, want zero", d)
	}
}

func TestSummarizeTailIsTheQualifyingPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	d := summarize(xs)
	if d.TailAt != 90 {
		t.Fatalf("tail percentile %g, want 90 for 100 samples", d.TailAt)
	}
	if want := percentile(xs, 90); d.Tail != want || d.Tail < 90 || d.Tail > 91 {
		t.Fatalf("tail %g, want p90 %g", d.Tail, want)
	}
	if d.P50 != 50.5 {
		t.Fatalf("p50 %g, want 50.5", d.P50)
	}
}

func TestEndToEndMediansAreOverBlocksAndTailsPooled(t *testing.T) {
	// Three blocks of 20 visibility samples; the third block met a slow
	// spell and reads ten times higher.
	block := func(base float64) *outcome {
		o := newOutcome()
		for i := 0; i < 20; i++ {
			o.Visible = append(o.Visible, base+float64(i))
		}
		o.Wall, o.Gates, o.Setups, o.HeapMB = 10, 100, []float64{base}, base
		return o
	}
	m, _ := endToEndOf([]*outcome{block(100), block(110), block(1000)})
	// Block medians are 109.5, 119.5 and 1009.5: the run's median is the
	// middle one, untouched by the slow block.
	if got := m["visible_p50_ms"]; got != 119.5 {
		t.Errorf("visible_p50_ms = %g, want the middle block median 119.5", got)
	}
	// 60 pooled samples put the tail at p75, inside the slow block.
	if got := m["visible_tail_ms"]; got < 1000 {
		t.Errorf("visible_tail_ms = %g, want the pooled p75 from the slow block", got)
	}
	if got := m["gates_per_s"]; got != 10 {
		t.Errorf("gates_per_s = %g, want 300 gates over 30 s", got)
	}
	if m["setup_s"] != 110 || m["live_heap_mb"] != 110 {
		t.Errorf("setup_s %g, live_heap_mb %g, want the medians 110", m["setup_s"], m["live_heap_mb"])
	}
}
