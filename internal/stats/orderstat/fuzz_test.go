package orderstat

import "testing"

// fuzzValue maps one byte to a finite value: the low half of the range
// draws from a small tied pool, the high half from distinct values that
// interleave with it (including negatives), so both the insert-a-new-
// entry and the bump-a-multiplicity paths of Add and Remove run. No
// value is -0 or NaN, so the == comparisons of verifyAgainst are bit
// comparisons.
func fuzzValue(b byte) float64 {
	if b < 128 {
		return float64(b%6) * 1.5
	}
	return float64(int(b)-192) * 0.37
}

// FuzzMultisetMatchesStats drives add/remove ops from a byte stream —
// two bytes per op: the op selector and the value — and after every op
// checks Len, Rank, FracRank and Percentile bit-for-bit against
// stats.Ranks and stats.Percentile over an oracle slice.
func FuzzMultisetMatchesStats(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 0, 200, 1, 0, 0, 7})
	f.Add([]byte{0, 130, 0, 131, 0, 129, 2, 130, 1, 1, 0, 255, 0, 128})
	f.Add([]byte{0, 3, 0, 9, 0, 15, 3, 200, 1, 0, 1, 0, 1, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		// 64 ops reach every path; longer inputs only slow each exec,
		// since every op re-verifies the whole multiset.
		if len(ops) > 128 {
			ops = ops[:128]
		}
		var m Multiset
		var ref refMultiset
		for step := 0; step+1 < len(ops); step += 2 {
			sel, v := ops[step], fuzzValue(ops[step+1])
			switch {
			case sel%4 == 3:
				// Remove an arbitrary value, present or not.
				if got, want := m.Remove(v), ref.remove(v); got != want {
					t.Fatalf("step %d: Remove(%v) = %v, want %v", step, v, got, want)
				}
			case sel%2 == 1 && len(ref.vals) > 0:
				// Remove a stored value.
				v = ref.vals[int(ops[step+1])%len(ref.vals)]
				if !m.Remove(v) {
					t.Fatalf("step %d: Remove(%v) of a present value returned false", step, v)
				}
				ref.remove(v)
			default:
				if err := m.Add(v); err != nil {
					t.Fatalf("step %d: Add(%v): %v", step, v, err)
				}
				ref.add(v)
			}
			verifyAgainst(t, &m, ref.vals, step)
			// Rank of the op's value, which may be absent, and of every
			// stored one, against a count over the oracle.
			for _, x := range append([]float64{v}, ref.vals...) {
				var less, equal int
				for _, y := range ref.vals {
					if y < x {
						less++
					} else if y == x {
						equal++
					}
				}
				if gl, ge := m.Rank(x); gl != less || ge != equal {
					t.Fatalf("step %d: Rank(%v) = (%d,%d), want (%d,%d)", step, x, gl, ge, less, equal)
				}
			}
		}
	})
}
