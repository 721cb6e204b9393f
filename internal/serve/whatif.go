// Read-only what-if analysis: re-run the diagnosis over an app's
// current corpus under overridden knobs without touching serving state.
//
// Isolation guarantee: a what-if builds a FRESH core.Analyzer over a
// point-in-time snapshot of the app's bundle list
// (IncrementalAnalyzer.Bundles). It shares no caches, no per-key
// summaries, and no report storage with the serving path, so the served
// snapshot (version, ETag, bytes) and the incremental engine's summary
// state are bit-for-bit unaffected — however many what-ifs run, with
// whatever parameters. The differential test pins this.
package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/core"
)

// WhatIfParams are the per-request analysis knobs a what-if may
// override; nil fields inherit the serving configuration.
type WhatIfParams struct {
	// WindowEvents is the manifestation-window half-width (Step 5).
	WindowEvents *int
	// FenceMultiplier is the Step-4 IQR fence multiplier.
	FenceMultiplier *float64
	// NormBasePercentile is the Step-3 normalization base percentile.
	NormBasePercentile *float64
	// DeveloperImpactPercent is the Step-5 impacted-percentage target.
	DeveloperImpactPercent *float64
}

// apply overlays the overrides on a copy of the base configuration.
func (p WhatIfParams) apply(cfg core.Config) core.Config {
	if p.WindowEvents != nil {
		cfg.WindowEvents = *p.WindowEvents
	}
	if p.FenceMultiplier != nil {
		cfg.FenceMultiplier = *p.FenceMultiplier
	}
	if p.NormBasePercentile != nil {
		cfg.NormBasePercentile = *p.NormBasePercentile
	}
	if p.DeveloperImpactPercent != nil {
		cfg.DeveloperImpactPercent = *p.DeveloperImpactPercent
	}
	return cfg
}

// WhatIf runs a read-only what-if analysis of the app's current corpus
// under the overridden knobs and returns the resulting report together
// with the effective configuration. The app's served snapshot and
// incremental state are untouched. ok is false when the app is unknown.
func (s *Service) WhatIf(app string, p WhatIfParams) (report *core.Report, cfg core.Config, ok bool, err error) {
	s.mu.Lock()
	st, ok := s.apps[app]
	s.mu.Unlock()
	if !ok {
		return nil, core.Config{}, false, nil
	}
	bundles := st.inc.Bundles() // point-in-time snapshot, own slice
	cfg = p.apply(s.cfg.Analysis)
	cfg.SkipInvalidTraces = true
	analyzer, err := core.NewAnalyzer(cfg)
	if err != nil {
		return nil, cfg, true, fmt.Errorf("serve: what-if config: %w", err)
	}
	report, err = analyzer.Analyze(bundles)
	if err != nil {
		return nil, cfg, true, fmt.Errorf("serve: what-if analysis: %w", err)
	}
	mWhatIfs.Inc()
	return report, cfg, true, nil
}

// ParseWhatIfParams decodes what-if overrides from query-style getters:
// window, fence, norm, impacted. Absent or empty parameters inherit the
// serving config. The JSON endpoint and the dashboard form both parse
// with it, so both accept identical parameters.
func ParseWhatIfParams(get func(string) string) (WhatIfParams, error) {
	var p WhatIfParams
	if v := get("window"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return p, fmt.Errorf("bad window=%q", v)
		}
		p.WindowEvents = &n
	}
	float := func(name string, dst **float64) error {
		v := get(name)
		if v == "" {
			return nil
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return fmt.Errorf("bad %s=%q", name, v)
		}
		*dst = &f
		return nil
	}
	if err := float("fence", &p.FenceMultiplier); err != nil {
		return p, err
	}
	if err := float("norm", &p.NormBasePercentile); err != nil {
		return p, err
	}
	if err := float("impacted", &p.DeveloperImpactPercent); err != nil {
		return p, err
	}
	return p, nil
}

// serveWhatIf is the GET /analysis/whatif endpoint: the app's current
// corpus re-analyzed under ?window=&fence=&norm=&impacted= overrides,
// returned as JSON with an X-WhatIf marker header. Serving state is
// untouched; responses are never cacheable (no ETag — the result is
// not the served snapshot).
func (s *Service) serveWhatIf(w http.ResponseWriter, req *http.Request) {
	if !requireGET(w, req) {
		return
	}
	q := req.URL.Query()
	app := q.Get("app")
	if app == "" {
		http.Error(w, "missing ?app= parameter", http.StatusBadRequest)
		return
	}
	params, err := ParseWhatIfParams(q.Get)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	report, cfg, ok, err := s.WhatIf(app, params)
	if !ok {
		http.Error(w, "unknown app "+app, http.StatusNotFound)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	w.Header().Set("X-WhatIf", "true")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = json.NewEncoder(w).Encode(struct {
		App    string       `json:"app"`
		Config whatIfConfig `json:"config"`
		Report *core.Report `json:"report"`
	}{App: app, Config: whatIfConfigOf(cfg), Report: report})
}

// whatIfConfig is the echoed effective-knob subset of a what-if run.
type whatIfConfig struct {
	WindowEvents           int     `json:"windowEvents"`
	FenceMultiplier        float64 `json:"fenceMultiplier"`
	NormBasePercentile     float64 `json:"normBasePercentile"`
	DeveloperImpactPercent float64 `json:"developerImpactPercent"`
}

func whatIfConfigOf(cfg core.Config) whatIfConfig {
	return whatIfConfig{
		WindowEvents:           cfg.WindowEvents,
		FenceMultiplier:        cfg.FenceMultiplier,
		NormBasePercentile:     cfg.NormBasePercentile,
		DeveloperImpactPercent: cfg.DeveloperImpactPercent,
	}
}
