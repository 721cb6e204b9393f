package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/trace"
)

// fleetOutcome is what ingest-fleet's output checks read.
type fleetOutcome struct {
	Sent    int64 // bundles the clients uploaded in the measured phase
	Acked   int64 // bundles the clients saw acknowledged
	Server  collect.ServerStats
	Appends int64 // seglog records appended since the tier opened
	// PerApp and WantPerApp are each app's corpus size as the tier
	// reports it and as the benchmark uploaded it (earlier batch
	// included).
	PerApp, WantPerApp map[string]int
}

// checkFleet verifies exactly-once ingest: every uploaded bundle was
// acked and accepted once, nothing was rejected or deduplicated, the
// log holds one record per accepted bundle, and every app's corpus is
// what was sent to it.
func checkFleet(o fleetOutcome) []error {
	var errs []error
	if o.Acked != o.Sent {
		errs = append(errs, fmt.Errorf("ingest: %d bundles acked of %d sent", o.Acked, o.Sent))
	}
	if o.Server.Accepted != o.Sent {
		errs = append(errs, fmt.Errorf("ingest: %d bundles accepted of %d sent", o.Server.Accepted, o.Sent))
	}
	if o.Server.Duplicated != 0 {
		errs = append(errs, fmt.Errorf("ingest: %d duplicates", o.Server.Duplicated))
	}
	if o.Server.Quarantined != 0 {
		errs = append(errs, fmt.Errorf("ingest: %d quarantined", o.Server.Quarantined))
	}
	if o.Appends != o.Server.Accepted {
		errs = append(errs, fmt.Errorf("ingest: seglog appended %d records for %d accepted bundles", o.Appends, o.Server.Accepted))
	}
	var apps []string
	for app := range o.WantPerApp {
		apps = append(apps, app)
	}
	for app := range o.PerApp {
		if _, ok := o.WantPerApp[app]; !ok {
			apps = append(apps, app)
		}
	}
	sort.Strings(apps)
	for _, app := range apps {
		if got, want := o.PerApp[app], o.WantPerApp[app]; got != want {
			errs = append(errs, fmt.Errorf("ingest: app %s holds %d bundles, %d were sent", app, got, want))
		}
	}
	return errs
}

// checkAcks verifies that every bundle a phone sent was acknowledged.
func checkAcks(sent, acked int64) error {
	if acked != sent {
		return fmt.Errorf("%d bundles acked of %d sent", acked, sent)
	}
	return nil
}

// batchReportJSON is the oracle for a served report: the batch
// analyzer over the corpus in upload order, serialized as the serving
// layer serializes, under the serving layer's analysis configuration.
func batchReportJSON(corpus []*trace.TraceBundle) ([]byte, error) {
	cfg := core.DefaultConfig()
	cfg.SkipInvalidTraces = true
	a, err := core.NewAnalyzer(cfg)
	if err != nil {
		return nil, err
	}
	rep, err := a.Analyze(corpus)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	return data, nil
}

// compareReport checks a served report body against the oracle's
// bytes and names the first differing offset.
func compareReport(served, want []byte) error {
	if bytes.Equal(served, want) {
		return nil
	}
	n := min(len(served), len(want))
	off := n
	for i := 0; i < n; i++ {
		if served[i] != want[i] {
			off = i
			break
		}
	}
	return fmt.Errorf("hot-app: served report (%d bytes) differs from batch analysis (%d bytes) at byte %d",
		len(served), len(want), off)
}

// hopVerdict is one gate decision of revision-gate with its ground
// truth.
type hopVerdict struct {
	Chain      string
	Hop        int  // candidate version index
	Regression bool // the hop injects the chain's regression
	Pass       bool // the gate's verdict
	HasSuspect bool
	Suspect    trace.EventKey // the diff's top suspect
	Culprit    trace.EventKey // the injected culprit (regression hops)
}

// checkGate verifies that the gate trips on exactly the regression
// hops, ranks the injected culprit first there, and passes every
// benign hop.
func checkGate(vs []hopVerdict) []error {
	var errs []error
	for _, v := range vs {
		switch {
		case v.Regression && v.Pass:
			errs = append(errs, fmt.Errorf("gate: %s hop %d injects a regression but passed", v.Chain, v.Hop))
		case v.Regression && (!v.HasSuspect || v.Suspect != v.Culprit):
			errs = append(errs, fmt.Errorf("gate: %s hop %d top suspect %v, culprit %v", v.Chain, v.Hop, v.Suspect, v.Culprit))
		case !v.Regression && !v.Pass:
			errs = append(errs, fmt.Errorf("gate: %s hop %d is benign but tripped", v.Chain, v.Hop))
		}
	}
	return errs
}
