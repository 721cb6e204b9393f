package revision

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/trace"
)

// AnalyzeConfig parameterizes the chain analyzer.
type AnalyzeConfig struct {
	// Core is the manifestation-analysis configuration (zero value:
	// core.DefaultConfig).
	Core core.Config
	// Revisit re-syncs the analyzer to v0 and back to vN after the
	// forward walk — the bisect/revert access pattern. Bundles dropped
	// mid-chain re-enter through the retained Step-1 cache, so this is
	// where cross-version cache reuse actually shows up as hits (a pure
	// forward walk never re-looks-up a shared bundle).
	Revisit bool
}

// Analyzer feeds successive versions of one app through a single
// core.IncrementalAnalyzer by applying only the bundle add/remove delta
// between versions. Bundles shared with the previous version — in a
// realistic chain, most of them — keep their Step-1 results and their
// contributions to the per-key order-statistic summaries; only the
// sessions an edit actually changed are re-estimated.
type Analyzer struct {
	inc *core.IncrementalAnalyzer
}

// NewAnalyzer builds a chain analyzer.
func NewAnalyzer(cfg AnalyzeConfig) (*Analyzer, error) { return newAnalyzer(cfg, 0) }

// newAnalyzer builds a chain analyzer whose Step-1 cache holds up to
// cacheCap bundles (<= 0 means the core default).
func newAnalyzer(cfg AnalyzeConfig, cacheCap int) (*Analyzer, error) {
	var zero core.Config
	if cfg.Core == zero {
		cfg.Core = core.DefaultConfig()
	}
	inc, err := core.NewIncrementalAnalyzer(cfg.Core, cacheCap)
	if err != nil {
		return nil, fmt.Errorf("revision: %w", err)
	}
	return &Analyzer{inc: inc}, nil
}

// Delta summarizes the corpus mutation one version hop required.
type Delta struct {
	// Added / Removed are the bundle-level corpus mutations applied.
	Added   int `json:"added"`
	Removed int `json:"removed"`
	// Shared counts the candidate's bundles carried over unchanged from
	// the previous version.
	Shared int `json:"shared"`
}

// VersionResult is the analysis of one chain version.
type VersionResult struct {
	Index  int          `json:"index"`
	Report *core.Report `json:"-"`
	Delta  Delta        `json:"delta"`
	// Summary is the version's report summary (timeline row).
	Summary core.ReportSummary `json:"summary"`
	// CacheStats snapshots the cumulative Step-1 cache counters after
	// this version's analysis.
	CacheStats core.CacheStats `json:"cacheStats"`
}

// AnalyzeVersion syncs the analyzer's corpus to the version's bundles
// (content-key diff: add what is new, remove what disappeared) and
// re-analyzes. Surviving bundles keep their original corpus positions;
// new bundles append in corpus order — the same insertion-order
// semantics the serving layer's watch path uses.
func (a *Analyzer) AnalyzeVersion(index int, bundles []*trace.TraceBundle) (*VersionResult, error) {
	res := &VersionResult{Index: index}
	res.Delta.Added, res.Delta.Removed = a.inc.Sync(bundles)
	res.Delta.Shared = a.inc.Len() - res.Delta.Added
	rep, err := a.inc.Report()
	if err != nil {
		return nil, fmt.Errorf("revision: analyze v%d: %w", index, err)
	}
	res.Report = rep
	res.Summary = rep.Summarize(5)
	res.CacheStats = a.inc.CacheStats()
	return res, nil
}

// CacheStats snapshots the underlying Step-1 cache counters.
func (a *Analyzer) CacheStats() core.CacheStats { return a.inc.CacheStats() }

// ChainResult is the analysis of a whole chain: the per-version
// timeline plus the consecutive-version diffs.
type ChainResult struct {
	// Versions holds one result per chain version, in order.
	Versions []*VersionResult
	// Diffs[i] compares version i (baseline) to version i+1 (candidate).
	Diffs []*Diff
	// CacheHitRate is the cross-version Step-1 cache hit rate over the
	// whole chain run.
	CacheHitRate float64
	// RevisitHitRate is the Step-1 cache hit rate during the revert
	// hops (AnalyzeConfig.Revisit only): how much of a revisited
	// version's estimation work the cache absorbed. RevisitLookups is
	// the number of cache lookups those hops made — zero when every hop
	// was static-only (corpus unchanged), in which case the rate is
	// meaningless and stays 0.
	RevisitHitRate float64
	RevisitLookups int64
	// SharedFraction is the mean fraction of a version's bundles shared
	// with its predecessor (v1..vN).
	SharedFraction float64
}

// RunChain generates each version's corpus and feeds the chain through
// one delta-fed analyzer, diffing consecutive versions.
func RunChain(chain *Chain, chainCfg ChainConfig, cc CorpusConfig, acfg AnalyzeConfig) (*ChainResult, error) {
	corpora, err := ChainCorpora(chain, chainCfg, cc)
	if err != nil {
		return nil, err
	}
	a, err := NewAnalyzer(acfg)
	if err != nil {
		return nil, err
	}
	out := &ChainResult{}
	sharedSum := 0.0
	for i, bundles := range corpora {
		vr, err := a.AnalyzeVersion(i, bundles)
		if err != nil {
			return nil, err
		}
		out.Versions = append(out.Versions, vr)
		if i > 0 {
			out.Diffs = append(out.Diffs, Compare(out.Versions[i-1].Report, vr.Report))
			if n := vr.Delta.Shared + vr.Delta.Added; n > 0 {
				sharedSum += float64(vr.Delta.Shared) / float64(n)
			}
		}
	}
	if n := len(out.Versions) - 1; n > 0 {
		out.SharedFraction = sharedSum / float64(n)
	}
	if acfg.Revisit && len(corpora) > 1 {
		before := a.CacheStats()
		if _, err := a.AnalyzeVersion(0, corpora[0]); err != nil {
			return nil, err
		}
		last := len(corpora) - 1
		if _, err := a.AnalyzeVersion(last, corpora[last]); err != nil {
			return nil, err
		}
		after := a.CacheStats()
		if lk := after.Lookups - before.Lookups; lk > 0 {
			out.RevisitLookups = lk
			out.RevisitHitRate = float64(after.Hits-before.Hits) / float64(lk)
		}
	}
	st := a.CacheStats()
	if st.Lookups > 0 {
		out.CacheHitRate = float64(st.Hits) / float64(st.Lookups)
	}
	return out, nil
}
