package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/revision"
)

// gateWalk is one chain's analyzer positioned at the chain's base
// version.
type gateWalk struct {
	chain *gateChain
	a     *revision.Analyzer
	base  *revision.VersionResult
}

// openGateWalk builds a chain analyzer and analyzes the base version.
func openGateWalk(c *gateChain) (*gateWalk, error) {
	a, err := revision.NewAnalyzer(revision.AnalyzeConfig{})
	if err != nil {
		return nil, err
	}
	base, err := a.AnalyzeVersion(0, c.Corpora[0])
	if err != nil {
		return nil, err
	}
	return &gateWalk{chain: c, a: a, base: base}, nil
}

// hopTimes is one hop's timing: AnalyzeVersion, Compare and Evaluate
// back to back.
type hopTimes struct {
	analyze, compare, evaluate time.Duration
	bundles                    int     // the candidate corpus submitted
	churn                      float64 // (added + removed) / bundles
}

// walk runs every hop of the chain and returns the verdicts and
// timings. Hop h's request id in spans is "<chain>/hop<h>".
func (w *gateWalk) walk(tr *tracer, gate revision.GateConfig) ([]hopVerdict, []hopTimes, error) {
	var vs []hopVerdict
	var ts []hopTimes
	prev := w.base
	for h := 1; h < len(w.chain.Corpora); h++ {
		req := fmt.Sprintf("%s/hop%d", w.chain.Name, h)
		hop := tr.begin("revision.hop", req, 0)

		sp := tr.begin("revision.analyze", req, hop.id)
		t0 := time.Now()
		vr, err := w.a.AnalyzeVersion(h, w.chain.Corpora[h])
		t1 := time.Now()
		sp.end()
		if err != nil {
			return nil, nil, err
		}
		sp = tr.begin("revision.compare", req, hop.id)
		d := revision.Compare(prev.Report, vr.Report)
		t2 := time.Now()
		sp.end()
		sp = tr.begin("revision.evaluate", req, hop.id)
		verdict := gate.Evaluate(d)
		t3 := time.Now()
		sp.end()
		hop.end()

		v := hopVerdict{Chain: w.chain.Name, Hop: h, Regression: w.chain.regressionHop(h),
			Pass: verdict.Pass, Culprit: w.chain.Chain.Culprit}
		if top, ok := d.TopSuspect(); ok {
			v.HasSuspect, v.Suspect = true, top.Key
		}
		vs = append(vs, v)
		n := len(w.chain.Corpora[h])
		ts = append(ts, hopTimes{analyze: t1.Sub(t0), compare: t2.Sub(t1), evaluate: t3.Sub(t2),
			bundles: n, churn: float64(vr.Delta.Added+vr.Delta.Removed) / float64(n)})
		prev = vr
	}
	return vs, ts, nil
}

// runGate is the revision-gate workload: one CI caller walks the
// chain pool round-robin, gating every hop, for the window.
func runGate(rc runConfig) (*outcome, error) {
	o := newOutcome()
	chains, err := genGate(rc.seed)
	if err != nil {
		return nil, err
	}
	var setups []float64
	var walks []*gateWalk
	for r := 0; r < gateSetupReps; r++ {
		t := time.Now()
		walks = walks[:0]
		for _, c := range chains {
			w, err := openGateWalk(c)
			if err != nil {
				return nil, err
			}
			walks = append(walks, w)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	o.Setups = setups

	gate := revision.DefaultGate()
	var (
		verdicts []hopVerdict
		hops     []hopTimes
		cache    core.CacheStats
	)
	start := time.Now()
	deadline := start.Add(rc.window)
	// Whole chains only, so every walked chain is checked end to end.
	// The set-up analyzers serve the first pass; later passes build a
	// fresh analyzer per chain (its base analysis counts in the
	// caller's wall time, not in any hop).
	for pass := 0; time.Now().Before(deadline); pass++ {
		for i, c := range chains {
			if !time.Now().Before(deadline) {
				break
			}
			w := walks[i]
			if pass > 0 {
				sp := rc.tr.begin("revision.base", c.Name, 0)
				if w, err = openGateWalk(c); err != nil {
					return nil, err
				}
				sp.end()
				walks[i] = w
			}
			vs, ts, err := w.walk(rc.tr, gate)
			if err != nil {
				return nil, err
			}
			verdicts = append(verdicts, vs...)
			hops = append(hops, ts...)
			cs := w.a.CacheStats()
			cache.Lookups += cs.Lookups
			cache.Hits += cs.Hits
		}
	}
	end := time.Now()
	o.HeapMB = liveHeapMB()
	runtime.KeepAlive(walks) // the last pass's analyzers are the live state
	o.Attempted = len(verdicts)

	wall := end.Sub(start).Seconds()
	var ack, visible, gated []float64
	bundles := 0
	for _, h := range hops {
		ack = append(ack, ms(h.analyze))
		visible = append(visible, ms(h.analyze+h.compare))
		gated = append(gated, ms(h.analyze+h.compare+h.evaluate))
		bundles += h.bundles
	}
	o.measured(wall, float64(bundles), float64(len(verdicts)), ack, visible, gated)
	o.note("per hop: ack_* is AnalyzeVersion (the candidate corpus synced and analyzed), visible_* adds Compare (the diff is readable), gate_* adds Evaluate (the verdict)")
	o.note("bundles_per_s counts each candidate version's corpus the caller submitted")
	o.check(checkGate(verdicts)...)
	if rc.tr == nil {
		return o, nil
	}
	o.spans = rc.tr.records()
	L := o.Layer
	var analyze, compare, evaluate, churn []float64
	for _, h := range hops {
		analyze = append(analyze, ms(h.analyze))
		compare = append(compare, ms(h.compare))
		evaluate = append(evaluate, us(h.evaluate))
		churn = append(churn, h.churn)
	}
	L["revision.analyze_ms"] = median(analyze)
	L["revision.compare_ms"] = median(compare)
	L["revision.evaluate_us"] = median(evaluate)
	L["revision.churn_frac"] = mean(churn)
	L["core.step1_hit_rate"] = cache.HitRate()
	o.zeroLayers("revision.Analyzer does not expose its analyzer's SummaryStats", "core.summary_mb")
	o.zeroLayers("no served report on revision-gate; base analysis is in setup_s", "core.first_report_s")
	o.zeroLayers("no wire, store or log on revision-gate", "binenc.encode_us", "binenc.decode_us",
		"binenc.wire_bytes_per_bundle", "collect.upload_ms", "collect.store_append_us",
		"collect.server_self_us", "collect.attempts_per_upload", "collect.accepted",
		"collect.duplicated", "collect.quarantined", "seglog.fsyncs_per_bundle", "seglog.replay_s")
	o.zeroLayers("no serving layer on revision-gate", "serve.notify_p50_us", "serve.notify_tail_us", "serve.notify_mean_us",
		"serve.flushes", "serve.bundles_per_flush", "serve.report_ms", "serve.materialize_ms",
		"serve.read_ms", "serve.report_mb", "serve.debounce_wait_ms")
	o.zeroLayers("closed loop: no schedule to run late against", "harness.late_ms")
	return o, nil
}
