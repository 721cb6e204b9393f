package core_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

// fragmentCounts reads core_report_fragments_encoded_total per part.
func fragmentCounts(t *testing.T) (head, rank, tail float64) {
	t.Helper()
	read := func(part string) float64 {
		v, ok := obs.Default.Value(`core_report_fragments_encoded_total{part="` + part + `"}`)
		if !ok {
			t.Fatalf("fragment counter for part %q is not registered", part)
		}
		return v
	}
	return read("head"), read("rank"), read("tail")
}

// TestReportJSONEncodesOnlyChangedFragments pins the fragment cache's
// cost model through its counters: a repeat call encodes nothing; one
// added bundle encodes exactly its own head, rank and tail plus the
// rank columns of re-ranked traces and the tails of traces whose bases
// moved — no tail at all for an existing trace when no base moved; a
// removal encodes no head. A build that quietly re-encodes everything
// fails here even though its bytes are right.
func TestReportJSONEncodesOnlyChangedFragments(t *testing.T) {
	pool := bundlePool(t, 40, 67)
	inc, err := core.NewIncrementalAnalyzer(core.DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	warm := len(pool) - 10
	for _, b := range pool[:warm] {
		inc.Add(b)
	}
	encode := func(what string) (dHead, dRank, dTail float64, st core.SummaryStats) {
		t.Helper()
		h0, r0, t0 := fragmentCounts(t)
		rep, body, err := inc.ReportJSON()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if want := reportJSON(t, rep); !bytes.Equal(bodyBytes(t, body), want) {
			t.Fatalf("%s: ReportJSON bytes differ from json.Marshal of its report", what)
		}
		h1, r1, t1 := fragmentCounts(t)
		return h1 - h0, r1 - r0, t1 - t0, inc.SummaryStats()
	}

	if h, r, tl, _ := encode("cold"); h != float64(warm) || r != float64(warm) || tl != float64(warm) {
		t.Fatalf("cold corpus of %d traces encoded %v heads, %v ranks, %v tails; want %d of each", warm, h, r, tl, warm)
	}
	if h, r, tl, _ := encode("repeat"); h != 0 || r != 0 || tl != 0 {
		t.Fatalf("a repeat call with no mutation encoded %v heads, %v ranks, %v tails; want none", h, r, tl)
	}

	keys := make([]string, 0, len(pool)-warm)
	for i, b := range pool[warm:] {
		key, _ := inc.Add(b)
		keys = append(keys, key)
		h, r, tl, st := encode("add")
		if h != 1 {
			t.Fatalf("add %d: encoded %v head fragments, want exactly 1", i, h)
		}
		if want := float64(st.RankDirtyTraces); r != want {
			t.Fatalf("add %d: encoded %v rank fragments, want %v (the re-ranked traces, the new one among them)", i, r, want)
		}
		if want := float64(st.DetectDirtyTraces); tl != want {
			t.Fatalf("add %d: encoded %v tail fragments, want %v (the re-detected traces, the new one among them)", i, tl, want)
		}
	}

	inc.Remove(keys[0])
	h, r, tl, st := encode("remove")
	if h != 0 || r != float64(st.RankDirtyTraces) || tl != float64(st.DetectDirtyTraces) {
		t.Fatalf("remove: encoded %v heads, %v ranks, %v tails; want 0, %d, %d", h, r, tl, st.RankDirtyTraces, st.DetectDirtyTraces)
	}

	// A corpus of copies of one session under distinct trace IDs: every
	// key's power multiset holds one repeated value, so one more copy
	// re-ranks but moves no base, and the only tail encoded is the new
	// trace's own.
	inc, err = core.NewIncrementalAnalyzer(core.DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	addCopy := func(i int) {
		c := *pool[0]
		c.Key = ""
		c.Event.TraceID = fmt.Sprintf("%s-copy%d", c.Event.TraceID, i)
		if _, added := inc.Add(&c); !added {
			t.Fatalf("copy %d was deduplicated; its trace ID did not change its content key", i)
		}
	}
	for i := 0; i < 8; i++ {
		addCopy(i)
	}
	encode("copies")
	addCopy(8)
	h, r, tl, st = encode("one more copy")
	if st.DetectDirtyTraces != 1 {
		t.Fatalf("one more copy moved a base (%d traces re-detected, the new one among them); the no-tail case is untested", st.DetectDirtyTraces)
	}
	if h != 1 || tl != 1 || r != float64(st.RankDirtyTraces) {
		t.Fatalf("one more copy encoded %v heads, %v ranks, %v tails; want 1, %d, 1", h, r, tl, st.RankDirtyTraces)
	}
}

// TestETagFromFragmentDigests pins the digest a served ETag is cut
// from: across add, remove and re-add churn, the incremental body's
// bytes equal json.Marshal of batch Analyze over the same corpus, and
// its Digest — built from cached per-fragment digests, only the
// re-encoded fragments hashed anew — equals EncodeReport's cold digest
// of the batch report. A refresh that drops a fragment's bytes but
// keeps a stale digest fails here even though the bytes are right.
func TestETagFromFragmentDigests(t *testing.T) {
	pool := bundlePool(t, 12, 73)
	batch, err := core.NewAnalyzer(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	inc, err := core.NewIncrementalAnalyzer(core.DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var corpus []*trace.TraceBundle // the oracle: live bundles in insertion order
	keys := make(map[*trace.TraceBundle]string)
	add := func(b *trace.TraceBundle) {
		keys[b], _ = inc.Add(b)
		corpus = append(corpus, b)
	}
	remove := func(b *trace.TraceBundle) {
		inc.Remove(keys[b])
		corpus = slices.DeleteFunc(corpus, func(c *trace.TraceBundle) bool { return c == b })
	}
	digests := make(map[[32]byte]bool)
	check := func(what string) {
		t.Helper()
		_, body, err := inc.ReportJSON()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		want, err := batch.Analyze(corpus)
		if err != nil {
			t.Fatalf("%s: batch: %v", what, err)
		}
		if !bytes.Equal(bodyBytes(t, body), reportJSON(t, want)) {
			t.Fatalf("%s: served bytes differ from json.Marshal of the batch report", what)
		}
		if body.Digest != encodeReport(t, want).Digest {
			t.Fatalf("%s: incremental digest differs from EncodeReport's of the batch report", what)
		}
		digests[body.Digest] = true
	}

	for _, b := range pool[:8] {
		add(b)
	}
	check("cold")
	steps := 0
	for r := 0; r < 4; r++ {
		out := pool[r]
		remove(out)
		check(fmt.Sprintf("round %d: remove %d", r, r))
		add(pool[8+r])
		check(fmt.Sprintf("round %d: add %d", r, 8+r))
		add(out)
		check(fmt.Sprintf("round %d: re-add %d", r, r))
		remove(pool[8+r])
		check(fmt.Sprintf("round %d: remove %d", r, 8+r))
		steps += 4
	}
	if len(digests) < steps/2 {
		t.Fatalf("%d churn steps produced only %d distinct digests; the corpus no longer changes the report", steps, len(digests))
	}
}
