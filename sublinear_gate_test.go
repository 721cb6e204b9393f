package repro

import (
	"os"
	"strings"
	"testing"
)

// maxSublinearExponent is the CI ceiling for the fitted growth exponent
// of the sublinear re-analysis path. The design target is a per-ingest
// cost flat in corpus size (exponent near 0 over 100..10k bundles);
// 0.5 leaves headroom for benchmark noise while still failing loudly if
// an O(N) cost (a full-table clear, an order-slice reallocation, eager
// dirty fan-out) sneaks back onto the churn path.
const maxSublinearExponent = 0.5

// minSpeedupVsIncremental is the CI floor for how much faster summary
// maintenance must be than a full report materialization at the largest
// sweep size.
const minSpeedupVsIncremental = 5.0

// TestSublinearGate re-times the corpus-size sweep and fails if the
// sublinear ingest path has regressed toward linear growth. Gated
// behind SUBLINEAR_GATE=1 because it benchmarks 10k-bundle corpora
// (roughly a minute); run it locally with:
//
//	SUBLINEAR_GATE=1 go test -run TestSublinearGate .
func TestSublinearGate(t *testing.T) {
	if os.Getenv("SUBLINEAR_GATE") == "" {
		t.Skip("set SUBLINEAR_GATE=1 to run the sublinear growth gate")
	}
	entries, fits := reanalyzeSweep(t, sweepSizes)
	for _, f := range fits {
		t.Logf("%s: sizes %v -> ns/op %v, fitted exponent %.3f", f.Name, f.Sizes, f.NsPerOp, f.Exponent)
	}
	for _, f := range fits {
		if f.Name != "reanalyze-after-add/sublinear" {
			continue
		}
		if f.Exponent > maxSublinearExponent {
			t.Errorf("sublinear re-analysis grows as N^%.3f (> %.1f): per-ingest cost is no longer flat in N; ns/op %v over sizes %v",
				f.Exponent, maxSublinearExponent, f.NsPerOp, f.Sizes)
		}
	}

	largest := sweepSizes[len(sweepSizes)-1]
	var sub, inc *sweepEntry
	for i := range entries {
		e := &entries[i]
		if e.CorpusSize != largest {
			continue
		}
		switch {
		case strings.Contains(e.Name, "/sublinear/"):
			sub = e
		case strings.Contains(e.Name, "/incremental/"):
			inc = e
		}
	}
	if sub == nil || inc == nil {
		t.Fatalf("sweep produced no entries at the largest size %d", largest)
	}
	if float64(inc.NsPerOp) < minSpeedupVsIncremental*float64(sub.NsPerOp) {
		t.Errorf("at %d bundles, sublinear maintenance (%d ns/op) is only %.1fx faster than full re-analysis (%d ns/op), want >= %.0fx",
			largest, sub.NsPerOp, float64(inc.NsPerOp)/float64(sub.NsPerOp), inc.NsPerOp, minSpeedupVsIncremental)
	}
}
