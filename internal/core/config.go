// Package core implements the EnergyDx manifestation analysis: the 5-step
// algorithm of paper §III that distinguishes the real ABD manifestation
// point from power-transition points caused by normal usage, and reports
// the events coinciding with the manifestation ordered by how closely
// their impacted-trace percentage matches the developer-reported
// impacted-user percentage.
package core

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/obs"
)

// Config holds the tunable parameters of the manifestation analysis. The
// defaults are the paper's published choices.
type Config struct {
	// NormBasePercentile is the percentile of an event's power
	// distribution used as its normalization base (Step 3). The paper
	// uses the 10th percentile "to reduce the impact of power outliers".
	NormBasePercentile float64

	// FenceMultiplier is the IQR multiplier of the upper outer fence in
	// Step 4's outlier detection. The paper uses Q3 + 3*IQR.
	FenceMultiplier float64

	// MinAmplitude is the minimum variation amplitude (in normalized
	// power units) a fence outlier must reach to count as a
	// manifestation point. The paper's premise is that the ABD moves
	// power "from normal (low) to abnormal (high)"; requiring the rise
	// to be at least half the event's typical power keeps degenerate
	// IQR fences on near-flat traces from promoting measurement jitter.
	MinAmplitude float64

	// WindowEvents is the manifestation-window half-width in events:
	// instances within WindowEvents positions of a detected point are
	// reported (Step 5). The paper's worked example uses 2.
	WindowEvents int

	// SingleStepAmplitude disables the paper's monotone-run extension
	// of the variation amplitude: with it set, V_i is always
	// p_{i+1} - p_i. Used by the amplitude ablation; gradually
	// manifesting ABDs (power climbing over several events) are found
	// late or missed in this mode.
	SingleStepAmplitude bool

	// ReferenceDevice is the profile all power is scaled to before
	// comparison (Step 1, power-model scaling [22]).
	ReferenceDevice string

	// DeveloperImpactPercent is the developer-estimated percentage of
	// users impacted by the ABD (Step 5). Events whose impacted-trace
	// percentage is closest to this value are reported first. When <= 0
	// the report falls back to sorting by impact percentage descending.
	DeveloperImpactPercent float64

	// EstimationNoiseFrac, when positive, injects multiplicative Gaussian
	// noise of this fractional standard deviation into Step 1's power
	// estimates (the paper's model has <2.5% error). NoiseSeed drives it.
	EstimationNoiseFrac float64
	NoiseSeed           int64

	// SkipInvalidTraces degrades gracefully on corrupt corpora: a trace
	// that fails Step 1 (unknown device, unpaired records, bad power
	// input, a non-finite power estimate) is recorded in Report.Skipped
	// and excluded instead of failing the whole batch. A production
	// backend analyzing uploads from millions of devices sets this; the
	// paper-reproduction experiments leave it off so generator bugs
	// stay loud.
	SkipInvalidTraces bool

	// Devices resolves device profile names. Nil means the built-in
	// registry.
	Devices *device.Registry

	// Parallelism is the worker count for the analysis fan-outs: Step 1
	// per trace, Step 2 per event-key shard, and Steps 3-4 per trace.
	// IncrementalAnalyzer's reports fan Steps 2-4 and the fragment
	// encode out over it too, in chunks of at least 64 traces.
	// 0 means one worker per available CPU (GOMAXPROCS), 1 forces a
	// serial run, and values above the item count are clamped. The
	// report is byte-identical at any worker count: results land in
	// input order, and estimation noise draws from a per-bundle RNG
	// seeded with NoiseSeed, so it does not depend on execution order.
	Parallelism int

	// Tracer, when non-nil, receives detailed spans from the analysis:
	// the five step spans plus one span per worker task, exportable as
	// a JSONL trace (energydx -trace). When nil the analyzer still
	// times each step against a private tracer to fill Report.Stages,
	// but skips the per-task spans so the hot path stays lean. Spans
	// never influence the report's analytic content.
	Tracer *obs.Tracer
}

// DefaultConfig returns the paper's parameterization.
func DefaultConfig() Config {
	return Config{
		NormBasePercentile:     10,
		FenceMultiplier:        3,
		MinAmplitude:           0.5,
		WindowEvents:           2,
		ReferenceDevice:        "nexus6",
		DeveloperImpactPercent: 0,
	}
}

// validate normalizes and checks the configuration.
func (c *Config) validate() error {
	if c.NormBasePercentile < 0 || c.NormBasePercentile > 100 {
		return fmt.Errorf("core: normalization base percentile %v out of [0, 100]", c.NormBasePercentile)
	}
	if c.FenceMultiplier <= 0 {
		return fmt.Errorf("core: fence multiplier %v must be positive", c.FenceMultiplier)
	}
	if c.MinAmplitude < 0 {
		return fmt.Errorf("core: minimum amplitude %v must be non-negative", c.MinAmplitude)
	}
	if c.WindowEvents < 0 {
		return fmt.Errorf("core: window size %d must be non-negative", c.WindowEvents)
	}
	if c.ReferenceDevice == "" {
		c.ReferenceDevice = "nexus6"
	}
	if c.Devices == nil {
		c.Devices = device.NewRegistry()
	}
	if _, err := c.Devices.Lookup(c.ReferenceDevice); err != nil {
		return fmt.Errorf("core: reference device: %w", err)
	}
	return nil
}
