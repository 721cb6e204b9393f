package orderstat

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/stats"
)

// refMultiset is the oracle: a plain slice kept alongside the columns.
type refMultiset struct{ vals []float64 }

func (r *refMultiset) add(v float64) { r.vals = append(r.vals, v) }
func (r *refMultiset) remove(v float64) bool {
	for i, x := range r.vals {
		if x == v {
			r.vals = append(r.vals[:i:i], r.vals[i+1:]...)
			return true
		}
	}
	return false
}

// drawValue produces values with heavy ties so the fractional-rank tie
// handling is exercised, not just the distinct-value path.
func drawValue(rng *rand.Rand) float64 {
	if rng.Intn(3) == 0 {
		return float64(rng.Intn(12)) * 1.5 // tied pool
	}
	return rng.NormFloat64()*100 + 400
}

// TestParityUnderChurn drives random add/remove churn and, at every
// step, checks Len, Kth, Rank, FracRank and Percentile against
// the stats package over the sorted oracle slice — bit-identical, not
// approximately equal.
func TestParityUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var m Multiset
	var ref refMultiset
	for step := 0; step < 4000; step++ {
		if len(ref.vals) == 0 || rng.Intn(5) < 3 {
			v := drawValue(rng)
			if err := m.Add(v); err != nil {
				t.Fatalf("step %d: add %v: %v", step, v, err)
			}
			ref.add(v)
		} else {
			v := ref.vals[rng.Intn(len(ref.vals))]
			if !m.Remove(v) {
				t.Fatalf("step %d: remove of present value %v returned false", step, v)
			}
			ref.remove(v)
		}
		if step%37 != 0 { // full verification is O(n log n); sample it
			continue
		}
		verifyAgainst(t, &m, ref.vals, step)
	}
}

func verifyAgainst(t *testing.T, m *Multiset, vals []float64, step int) {
	t.Helper()
	if m.Len() != len(vals) {
		t.Fatalf("step %d: Len %d, want %d", step, m.Len(), len(vals))
	}
	if len(vals) == 0 {
		if _, err := m.Percentile(50); err != stats.ErrEmpty {
			t.Fatalf("step %d: empty percentile error %v", step, err)
		}
		return
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	for k := 0; k < len(sorted); k += 1 + len(sorted)/13 {
		got, err := m.Kth(k)
		if err != nil {
			t.Fatalf("step %d: Kth(%d): %v", step, k, err)
		}
		if got != sorted[k] {
			t.Fatalf("step %d: Kth(%d) = %v, want %v", step, k, got, sorted[k])
		}
	}
	wantRanks, err := stats.Ranks(vals)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		got, err := m.FracRank(v)
		if err != nil {
			t.Fatalf("step %d: FracRank(%v): %v", step, v, err)
		}
		if got != wantRanks[i] {
			t.Fatalf("step %d: FracRank(%v) = %v, want %v (bit parity with stats.Ranks)",
				step, v, got, wantRanks[i])
		}
	}
	for _, p := range []float64{0, 10, 25, 33.3, 50, 75, 90, 100} {
		want, err := stats.Percentile(vals, p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Percentile(p)
		if err != nil {
			t.Fatalf("step %d: Percentile(%v): %v", step, p, err)
		}
		if got != want {
			t.Fatalf("step %d: Percentile(%v) = %v, want %v (bit parity with stats.Percentile)",
				step, p, got, want)
		}
	}
}

// TestShapeAndNodesHistoryIndependent: the sorted columns are a
// function of the value set, so any insertion order over the same
// multiset must produce identical node counts, identical value walks
// and identical query answers.
func TestShapeAndNodesHistoryIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]float64, 300)
	for i := range vals {
		vals[i] = drawValue(rng)
	}
	var a, b Multiset
	for _, v := range vals {
		if err := a.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	perm := rng.Perm(len(vals))
	for _, i := range perm {
		if err := b.Add(vals[i]); err != nil {
			t.Fatal(err)
		}
	}
	if a.Nodes() != b.Nodes() || a.Len() != b.Len() {
		t.Fatalf("node/len diverged across insertion orders: (%d,%d) vs (%d,%d)",
			a.Nodes(), a.Len(), b.Nodes(), b.Len())
	}
	av := a.AppendValues(nil)
	bv := b.AppendValues(nil)
	for i := range av {
		if av[i] != bv[i] {
			t.Fatalf("value walk diverged at %d: %v vs %v", i, av[i], bv[i])
		}
	}
}

// TestThrashNoLeak: adding and removing the same values many times must
// return the multiset to its exact initial state with no node growth.
func TestThrashNoLeak(t *testing.T) {
	var m Multiset
	base := []float64{3, 1, 4, 1, 5, 9, 2.5, 6, 5.25, 3}
	for _, v := range base {
		if err := m.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	nodes0, len0 := m.Nodes(), m.Len()
	vals0 := m.AppendValues(nil)
	rng := rand.New(rand.NewSource(11))
	for cycle := 0; cycle < 1000; cycle++ {
		v := drawValue(rng)
		if err := m.Add(v); err != nil {
			t.Fatal(err)
		}
		if !m.Remove(v) {
			t.Fatalf("cycle %d: value %v vanished", cycle, v)
		}
	}
	if m.Nodes() != nodes0 || m.Len() != len0 {
		t.Fatalf("thrash leaked: nodes %d -> %d, len %d -> %d", nodes0, m.Nodes(), len0, m.Len())
	}
	vals1 := m.AppendValues(nil)
	for i := range vals0 {
		if vals0[i] != vals1[i] {
			t.Fatalf("thrash changed stored values at %d: %v vs %v", i, vals0[i], vals1[i])
		}
	}
}

// TestRejectsNonFinite: NaN/Inf must be refused at the boundary.
func TestRejectsNonFinite(t *testing.T) {
	var m Multiset
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := m.Add(v); err == nil {
			t.Fatalf("Add(%v) accepted a non-finite value", v)
		}
	}
	if m.Len() != 0 {
		t.Fatalf("rejected values still counted: len %d", m.Len())
	}
	if m.Remove(math.NaN()) {
		t.Fatal("Remove(NaN) reported success on an empty multiset")
	}
}

// TestEdgeQueries covers the degenerate shapes and error contracts.
func TestEdgeQueries(t *testing.T) {
	var m Multiset
	if _, err := m.Kth(0); err == nil {
		t.Fatal("Kth on empty multiset did not error")
	}
	if _, err := m.FracRank(1); err == nil {
		t.Fatal("FracRank of absent value did not error")
	}
	if err := m.Add(42); err != nil {
		t.Fatal(err)
	}
	if v, err := m.Percentile(10); err != nil || v != 42 {
		t.Fatalf("single-value percentile = %v, %v", v, err)
	}
	if _, err := m.Percentile(-1); err == nil {
		t.Fatal("out-of-range percentile did not error")
	}
	less, equal := m.Rank(42)
	if less != 0 || equal != 1 {
		t.Fatalf("Rank(42) = (%d,%d), want (0,1)", less, equal)
	}
	m.Reset()
	if m.Len() != 0 || m.Nodes() != 0 {
		t.Fatal("Reset left residue")
	}
}

func BenchmarkAddRemove(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var m Multiset
	for i := 0; i < 10000; i++ {
		_ = m.Add(rng.NormFloat64())
	}
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := vals[i%len(vals)]
		_ = m.Add(v)
		m.Remove(v)
	}
}

func BenchmarkPercentile(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var m Multiset
	for i := 0; i < 10000; i++ {
		_ = m.Add(rng.NormFloat64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Percentile(10); err != nil {
			b.Fatal(err)
		}
	}
}

// TestApplyRejectsWithoutChange: a batch that is unsorted, holds a
// non-finite add, or removes more occurrences than the multiset and
// the batch's adds hold fails as a whole and changes nothing.
func TestApplyRejectsWithoutChange(t *testing.T) {
	var m Multiset
	if err := m.Apply([]float64{1, 2, 2, 5}, nil); err != nil {
		t.Fatal(err)
	}
	want := m.AppendValues(nil)
	for _, tc := range []struct {
		name        string
		add, remove []float64
	}{
		{"unsorted add", []float64{3, 1}, nil},
		{"unsorted remove", nil, []float64{5, 1}},
		{"non-finite add", []float64{0, math.Inf(1)}, nil},
		{"NaN add", []float64{math.NaN()}, nil},
		{"NaN remove", nil, []float64{math.NaN()}},
		{"absent remove", []float64{4}, []float64{1, 3}},
		{"one occurrence too many", []float64{2}, []float64{2, 2, 2, 2}},
	} {
		if err := m.Apply(tc.add, tc.remove); err == nil {
			t.Errorf("%s: Apply(%v, %v) succeeded", tc.name, tc.add, tc.remove)
		}
		if got := m.AppendValues(nil); !slices.Equal(got, want) || m.Len() != len(want) {
			t.Fatalf("%s: failed Apply changed the multiset: %v, want %v", tc.name, got, want)
		}
	}
	// The adds land before the removes: a batch may remove what it adds.
	if err := m.Apply([]float64{2, 3}, []float64{1, 2, 2, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if got := m.AppendValues(nil); !slices.Equal(got, []float64{5}) {
		t.Fatalf("after add-then-remove batch: %v, want [5]", got)
	}
}

// BenchmarkApplyColdColumn merges 10,000 distinct values into an empty
// column as one sorted batch: what a cold load pays per key, against
// the 10,000 single Adds of BenchmarkAddRemove's set-up.
func BenchmarkApplyColdColumn(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 10000)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	slices.Sort(vals)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var m Multiset
		if err := m.Apply(vals, nil); err != nil {
			b.Fatal(err)
		}
	}
}
