package core

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/trace"
)

// TestIntakeOffAnalysisLock pins that the ingest side never waits for
// a report. While the analysis lock is held, as a report holds it
// through refresh and encode, Add, Remove, Contains and Len complete;
// and a bundle added after a report took its intake is absent from that
// report and present, batch-identical, in the next one.
func TestIntakeOffAnalysisLock(t *testing.T) {
	bundles := corpus(6, 2)
	late := normalTrace("late", "user-late")
	cfg := DefaultConfig()
	ia, err := NewIncrementalAnalyzer(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := NewAnalyzer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bundles {
		ia.Add(b)
	}
	marshal := func(r *Report) []byte {
		t.Helper()
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	ia.mu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		key, added := ia.Add(late)
		if !added || !ia.Contains(key) || ia.Len() != len(bundles)+1 {
			t.Errorf("Add under the analysis lock: added %v, Contains %v, Len %d", added, ia.Contains(key), ia.Len())
		}
		if !ia.Remove(key) || ia.Contains(key) || ia.Len() != len(bundles) {
			t.Errorf("Remove under the analysis lock: Contains %v, Len %d", ia.Contains(key), ia.Len())
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		ia.mu.Unlock()
		t.Fatal("Add, Remove, Contains or Len waited for the analysis lock")
	}

	// A report's intake, then an upload landing while it analyzes.
	ops, live := ia.takeIntake(true)
	lateKey, _ := ia.Add(late)
	rep, _, err := ia.reportOnLocked(ops, live)
	ia.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	want, err := batch.Analyze(bundles)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshal(rep), marshal(want)) {
		t.Fatal("a report reflects an Add that landed after its intake")
	}

	if !ia.Contains(lateKey) {
		t.Fatal("the late bundle is missing from the corpus")
	}
	_, body, err := ia.ReportJSON()
	if err != nil {
		t.Fatal(err)
	}
	want, err = batch.Analyze(append(append([]*trace.TraceBundle(nil), bundles...), late))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if _, err := body.WriteTo(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), marshal(want)) {
		t.Fatal("the report after the late Add is not batch-identical over the corpus with it")
	}
}
