package revision

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/trace"
)

// orderSim independently models the corpus order the incremental
// analyzer maintains: surviving bundles keep their positions, new
// bundles append in arrival order, and a bundle re-added after a
// removal re-enters at the end (its original slot is gone). The
// battery replays every version through this model and batch-analyzes
// the modeled order, so a drift in the analyzer's insertion-order
// semantics fails the byte-identity check rather than silently
// re-defining "expected".
type orderSim struct {
	order []string
	byKey map[string]*trace.TraceBundle
}

func newOrderSim() *orderSim {
	return &orderSim{byKey: make(map[string]*trace.TraceBundle)}
}

// sync applies one version's corpus: removals first conceptually, but
// since a version never removes a key it also contains, add-then-remove
// and remove-then-add agree on the final order.
func (s *orderSim) sync(bundles []*trace.TraceBundle) {
	live := make(map[string]bool, len(bundles))
	for _, b := range bundles {
		key := trace.ContentKey(b)
		live[key] = true
		if _, ok := s.byKey[key]; !ok {
			s.byKey[key] = b
			s.order = append(s.order, key)
		}
	}
	kept := s.order[:0]
	for _, key := range s.order {
		if live[key] {
			kept = append(kept, key)
		} else {
			delete(s.byKey, key)
		}
	}
	s.order = kept
}

func (s *orderSim) bundles() []*trace.TraceBundle {
	out := make([]*trace.TraceBundle, len(s.order))
	for i, key := range s.order {
		out[i] = s.byKey[key]
	}
	return out
}

// batteryCase is one differential-battery chain.
type batteryCase struct {
	appID    string
	seed     int64
	kind     Kind // "" = clean chain
	regrAt   int  // 0 = clean
	versions int
	cacheCap int // 0 = default; tiny caps interleave eviction with hops
	revisit  bool
}

func (c batteryCase) name() string {
	kind := string(c.kind)
	if kind == "" {
		kind = "clean"
	}
	return fmt.Sprintf("%s/%s/seed=%d/cap=%d/revisit=%t", c.appID, kind, c.seed, c.cacheCap, c.revisit)
}

// batteryCases enumerates the chains: every app × regression kind ×
// seed, clean chains, plus tiny-cache and revisit variants. Well over
// 100 chains in full mode; -short trims the seed range.
func batteryCases(short bool) []batteryCase {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7}
	if short {
		seeds = seeds[:2]
	}
	var out []batteryCase
	for _, appID := range []string{"k9mail", "sensorium", "opencamera"} {
		for _, seed := range seeds {
			for _, kind := range Kinds() {
				out = append(out, batteryCase{appID: appID, seed: seed, kind: kind, regrAt: 2, versions: 4})
			}
			out = append(out, batteryCase{appID: appID, seed: seed, versions: 5})
			// Tiny caps: the Step-1 cache thrashes (evictions between a
			// removal and the matching re-add) while versions hop.
			out = append(out, batteryCase{appID: appID, seed: seed, kind: KindHold, regrAt: 1, versions: 3, cacheCap: 2, revisit: true})
			out = append(out, batteryCase{appID: appID, seed: seed, versions: 3, cacheCap: 7, revisit: true})
		}
	}
	return out
}

// TestDifferentialBattery drives every chain through the delta-fed
// incremental path and requires the report after every version hop —
// including revert hops under a thrashing cache — to be byte-identical
// to a fresh batch Analyze of the same bundles in the modeled order.
func TestDifferentialBattery(t *testing.T) {
	cases := batteryCases(testing.Short())
	if !testing.Short() && len(cases) < 100 {
		t.Fatalf("battery has %d chains, want >= 100", len(cases))
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name(), func(t *testing.T) {
			t.Parallel()
			app, err := apps.ByAppID(tc.appID)
			if err != nil {
				t.Fatal(err)
			}
			ccfg := ChainConfig{
				App: app, Versions: tc.versions, Seed: tc.seed,
				EditsPerVersion: 2, RegressionAt: tc.regrAt, Kind: tc.kind, Rewires: true,
			}
			chain, err := GenerateChain(ccfg)
			if err != nil {
				t.Fatal(err)
			}
			corpora, err := ChainCorpora(chain, ccfg, CorpusConfig{Users: 5, Seed: 11, BrowsePhases: 4})
			if err != nil {
				t.Fatal(err)
			}
			inc, err := newAnalyzer(AnalyzeConfig{}, tc.cacheCap)
			if err != nil {
				t.Fatal(err)
			}
			batch, err := core.NewAnalyzer(core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			sim := newOrderSim()
			steps := make([][]*trace.TraceBundle, 0, tc.versions+2)
			steps = append(steps, corpora...)
			if tc.revisit {
				// Revert to v0, hop to the head, and back again: the
				// remove-then-re-add access pattern of a bisect session.
				steps = append(steps, corpora[0], corpora[len(corpora)-1], corpora[0])
			}
			for i, bundles := range steps {
				vr, err := inc.AnalyzeVersion(i, bundles)
				if err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				sim.sync(bundles)
				want, err := batch.Analyze(sim.bundles())
				if err != nil {
					t.Fatalf("step %d: batch: %v", i, err)
				}
				gotJSON, err := json.Marshal(vr.Report)
				if err != nil {
					t.Fatal(err)
				}
				wantJSON, err := json.Marshal(want)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gotJSON, wantJSON) {
					t.Fatalf("step %d: incremental report differs from batch (%d vs %d bytes)",
						i, len(gotJSON), len(wantJSON))
				}
			}
		})
	}
}
