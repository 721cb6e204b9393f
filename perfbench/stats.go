package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder is the set of percentiles a tail is chosen from, lowest
// first, in per mille so the count beyond each is exact. The tail of a
// sample is the highest of these that still has at least tailMinBeyond
// samples above it, so a short run reports a lower percentile instead
// of a maximum that flips between modes.
var tailLadder = []int{500, 750, 900, 950, 990, 999}

// tailMinBeyond is how many samples must lie beyond a percentile for
// it to be reported as the tail.
const tailMinBeyond = 10

// dist summarizes one latency sample: its median, its tail with the
// percentile that tail is, and the sample count.
type dist struct {
	N      int
	P50    float64
	Tail   float64
	TailAt float64 // the percentile Tail reports; 0 when N == 0
}

// summarize computes the median and the tail of xs (any unit). xs is
// sorted in place. With fewer than 2*tailMinBeyond samples no
// percentile has ten samples beyond it; the tail then falls back to the
// median (TailAt 50), the ladder's floor, rather than to the maximum.
func summarize(xs []float64) dist {
	d := dist{N: len(xs)}
	if len(xs) == 0 {
		return d
	}
	sort.Float64s(xs)
	d.P50 = percentile(xs, 50)
	d.TailAt = tailPercentile(len(xs))
	d.Tail = percentile(xs, d.TailAt)
	return d
}

// tailPercentile returns the highest ladder percentile with at least
// tailMinBeyond of n samples beyond it (50 when none qualifies).
func tailPercentile(n int) float64 {
	at := tailLadder[0]
	for _, pm := range tailLadder {
		if n*(1000-pm) >= tailMinBeyond*1000 {
			at = pm
		}
	}
	return float64(at) / 10
}

// percentile returns the p-th percentile of sorted xs by linear
// interpolation between closest ranks.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if hi >= len(sorted) {
		hi = len(sorted) - 1
	}
	frac := pos - float64(lo)
	return sorted[lo] + (sorted[hi]-sorted[lo])*frac
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return percentile(c, 50)
}

// mean returns the arithmetic mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ms and us convert a duration to float milliseconds / microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
