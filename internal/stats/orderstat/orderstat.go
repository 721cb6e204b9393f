// Package orderstat provides an exact order-statistic multiset over
// float64 values: Rank, FracRank, Kth and Percentile are binary
// searches, and Add and Remove cost one binary search plus O(D) column
// updates, where D is the number of distinct values stored. It is the
// summary structure behind the sublinear re-analysis path — one
// multiset per interned event key replaces the corpus-wide counting
// sort of the batch pipeline, while returning bit-identical answers.
//
// Exactness, not approximation: unlike quantile sketches, a Multiset
// stores every distinct value (with its multiplicity), so Percentile
// reproduces stats.Percentile and FracRank reproduces the tied-block
// mean of stats.Ranks to the last bit. The differential harness in
// internal/core leans on exactly this property.
//
// The store is two parallel columns: the distinct values in ascending
// order, and for each the number of stored values below it. A sorted
// array is canonical, so any add/remove history reaching the same
// multiset yields the same columns, and performance (and the distinct
// count checked by the thrash tests) is history-independent. The
// traffic this serves repeats values heavily — the summaries of a
// 5,000-session K9Mail corpus hold ~238k powers but only ~3.5k
// distinct ones, about 100 per key — so the O(D) part of a mutation is
// short. When every value is distinct it is not: BenchmarkAddRemove,
// over 10,000 distinct values, costs ~15 µs per add/remove pair.
//
// A Multiset is not safe for concurrent use; callers serialize access
// (the incremental analyzer holds its own lock).
package orderstat

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/stats"
)

// Multiset is an order-statistic multiset of finite float64 values.
// The zero value is an empty multiset ready for use.
type Multiset struct {
	vals  []float64 // distinct values, ascending
	below []int     // below[i]: stored values < vals[i], counting multiplicity
	n     int       // stored values, counting multiplicity
}

// Len returns the number of values in the multiset (with multiplicity).
func (m *Multiset) Len() int { return m.n }

// Nodes returns the number of distinct values currently stored. The
// thrash tests pin this as the leak detector: any add/remove history
// returning to the same multiset must return to the same count.
func (m *Multiset) Nodes() int { return len(m.vals) }

// Bytes returns the retained memory of the two columns in bytes
// (capacity, not length: a column keeps its capacity as values leave).
func (m *Multiset) Bytes() int {
	return cap(m.vals)*8 + cap(m.below)*8
}

// end returns the number of stored values up to and including vals[i].
func (m *Multiset) end(i int) int {
	if i+1 < len(m.below) {
		return m.below[i+1]
	}
	return m.n
}

// shift adds d to the below count of every distinct value from index i
// on: one more or one fewer value now precedes each of them.
func (m *Multiset) shift(i, d int) {
	b := m.below[i:]
	for j := range b {
		b[j] += d
	}
}

// Add inserts one occurrence of v. Non-finite values are rejected with
// an error so a corrupted sample cannot silently poison the summary
// (mirroring stats.ErrNonFinite at the batch layer). -0 and +0 compare
// equal and share one entry.
func (m *Multiset) Add(v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("%w: %v", stats.ErrNonFinite, v)
	}
	i, found := slices.BinarySearch(m.vals, v)
	if !found {
		less := m.n
		if i < len(m.below) {
			less = m.below[i]
		}
		m.vals = slices.Insert(m.vals, i, v)
		m.below = slices.Insert(m.below, i, less)
	}
	m.shift(i+1, 1)
	m.n++
	return nil
}

// Remove deletes one occurrence of v, reporting whether it was present.
func (m *Multiset) Remove(v float64) bool {
	if math.IsNaN(v) {
		return false
	}
	i, found := slices.BinarySearch(m.vals, v)
	if !found {
		return false
	}
	if m.end(i)-m.below[i] == 1 {
		m.vals = slices.Delete(m.vals, i, i+1)
		m.below = slices.Delete(m.below, i, i+1)
		m.shift(i, -1)
	} else {
		m.shift(i+1, -1)
	}
	m.n--
	return true
}

// Rank returns how many stored values are strictly less than v and how
// many equal it.
func (m *Multiset) Rank(v float64) (less, equal int) {
	i, found := slices.BinarySearch(m.vals, v)
	if i == len(m.vals) {
		return m.n, 0
	}
	if !found {
		return m.below[i], 0
	}
	return m.below[i], m.end(i) - m.below[i]
}

// FracRank returns the 1-based fractional (mean-of-ties) ascending rank
// of v, exactly as stats.Ranks assigns it: the tied block spanning
// 0-based positions [less, less+equal-1] receives float64(less +
// (less+equal-1))/2 + 1. v must be present in the multiset.
func (m *Multiset) FracRank(v float64) (float64, error) {
	less, equal := m.Rank(v)
	if equal == 0 {
		return 0, fmt.Errorf("orderstat: value %v not in multiset", v)
	}
	// Identical integer arithmetic to the batch tie loop (i=less,
	// j=less+equal-1; mean = float64(i+j)/2 + 1), so the float result is
	// bit-identical.
	return float64(less+(less+equal-1))/2 + 1, nil
}

// Kth returns the k-th smallest value (0-based, counting multiplicity).
func (m *Multiset) Kth(k int) (float64, error) {
	if k < 0 || k >= m.n {
		return 0, fmt.Errorf("orderstat: order statistic %d out of range [0, %d)", k, m.n)
	}
	// The last distinct value with at most k values below it holds
	// position k; below[0] is 0, so one always exists.
	i, found := slices.BinarySearch(m.below, k)
	if !found {
		i--
	}
	return m.vals[i], nil
}

// Percentile computes the p-th percentile (0 <= p <= 100) with the same
// type-7 linear interpolation — and the same operation order, so the
// same bits — as stats.Percentile over the sorted value slice.
func (m *Multiset) Percentile(p float64) (float64, error) {
	n := m.n
	if n == 0 {
		return 0, stats.ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("%w: %v", stats.ErrBadPercentile, p)
	}
	if n == 1 {
		return m.Kth(0)
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	vlo, err := m.Kth(lo)
	if err != nil {
		return 0, err
	}
	if lo == hi {
		return vlo, nil
	}
	vhi, err := m.Kth(hi)
	if err != nil {
		return 0, err
	}
	frac := rank - float64(lo)
	return vlo*(1-frac) + vhi*frac, nil
}

// Reset empties the multiset, retaining the columns' capacity.
func (m *Multiset) Reset() {
	m.vals, m.below, m.n = m.vals[:0], m.below[:0], 0
}

// AppendValues appends every stored value in ascending order (each
// repeated by its multiplicity) to dst and returns it; a debugging and
// test helper, O(n).
func (m *Multiset) AppendValues(dst []float64) []float64 {
	for i, v := range m.vals {
		for c := m.end(i) - m.below[i]; c > 0; c-- {
			dst = append(dst, v)
		}
	}
	return dst
}
