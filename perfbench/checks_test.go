package main

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/revision"
	"repro/internal/trace"
	"repro/internal/workload"
)

func goodFleet() fleetOutcome {
	return fleetOutcome{
		Sent: 10, Acked: 10,
		Server:     collect.ServerStats{Accepted: 10},
		Appends:    10,
		PerApp:     map[string]int{"a": 6, "b": 7},
		WantPerApp: map[string]int{"a": 6, "b": 7},
	}
}

func TestCheckFleetPassesExactlyOnce(t *testing.T) {
	if errs := checkFleet(goodFleet()); len(errs) != 0 {
		t.Fatalf("consistent outcome failed: %v", errs)
	}
}

func TestCheckFleetCatchesBrokenOutputs(t *testing.T) {
	cases := map[string]func(*fleetOutcome){
		"one missing ack": func(o *fleetOutcome) { o.Acked-- },
		"lost bundle":     func(o *fleetOutcome) { o.Server.Accepted-- },
		"duplicate":       func(o *fleetOutcome) { o.Server.Duplicated = 1 },
		"quarantined":     func(o *fleetOutcome) { o.Server.Quarantined = 1 },
		"log short":       func(o *fleetOutcome) { o.Appends-- },
		"app short":       func(o *fleetOutcome) { o.PerApp["b"]-- },
		"stray app":       func(o *fleetOutcome) { o.PerApp["c"] = 1 },
	}
	for name, breakIt := range cases {
		o := goodFleet()
		o.PerApp = map[string]int{"a": 6, "b": 7}
		breakIt(&o)
		if errs := checkFleet(o); len(errs) == 0 {
			t.Errorf("%s: check passed", name)
		}
	}
	if err := checkAcks(3, 2); err == nil {
		t.Error("checkAcks passed with one ack missing")
	}
}

func TestReportCheckCatchesOneFlippedByte(t *testing.T) {
	app, err := apps.ByAppID(hotApp)
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.DefaultConfig(app, 3)
	cfg.Users = 12
	res, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	corpus := make([]*trace.TraceBundle, len(res.Bundles))
	for i, b := range res.Bundles {
		corpus[i] = stamp(b)
	}
	want, err := batchReportJSON(corpus)
	if err != nil {
		t.Fatal(err)
	}
	// The served form: the incremental analyzer over the same corpus.
	cfg2 := core.DefaultConfig()
	cfg2.SkipInvalidTraces = true // as the serving layer runs it
	inc, err := core.NewIncrementalAnalyzer(cfg2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range corpus {
		inc.Add(b)
	}
	rep, err := inc.Report()
	if err != nil {
		t.Fatal(err)
	}
	served, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := compareReport(served, want); err != nil {
		t.Fatalf("incremental report differs from batch: %v", err)
	}
	flipped := append([]byte(nil), served...)
	flipped[len(flipped)/2] ^= 1
	err = compareReport(flipped, want)
	if err == nil || !strings.Contains(err.Error(), "at byte") {
		t.Fatalf("one flipped byte not caught: %v", err)
	}
	if err := compareReport(served[:len(served)-1], want); err == nil {
		t.Fatal("truncated report not caught")
	}
}

func TestCheckGateCatchesWrongVerdicts(t *testing.T) {
	culprit := trace.EventKey{Class: "LMain", Callback: "onClick"}
	good := []hopVerdict{
		{Chain: "hold-0", Hop: 1, Pass: true},
		{Chain: "hold-0", Hop: 3, Regression: true, Pass: false, HasSuspect: true, Suspect: culprit, Culprit: culprit},
		{Chain: "clean-0", Hop: 2, Pass: true},
	}
	if errs := checkGate(good); len(errs) != 0 {
		t.Fatalf("correct verdicts failed: %v", errs)
	}
	cases := map[string]func([]hopVerdict){
		"regression hop forced to pass": func(v []hopVerdict) { v[1].Pass = true },
		"wrong top suspect":             func(v []hopVerdict) { v[1].Suspect = trace.EventKey{Class: "LMain", Callback: "onPause"} },
		"no suspect":                    func(v []hopVerdict) { v[1].HasSuspect = false },
		"benign hop tripped":            func(v []hopVerdict) { v[2].Pass = false },
	}
	for name, breakIt := range cases {
		v := append([]hopVerdict(nil), good...)
		breakIt(v)
		if errs := checkGate(v); len(errs) != 1 {
			t.Errorf("%s: %d errors, want 1", name, len(errs))
		}
	}
}

func TestGateWalkVerdictsPassOnRealChains(t *testing.T) {
	chains, err := genGate(1)
	if err != nil {
		t.Fatal(err)
	}
	var all []hopVerdict
	for _, c := range chains[:len(gateKinds)] {
		w, err := openGateWalk(c)
		if err != nil {
			t.Fatal(err)
		}
		vs, _, err := w.walk(nil, revision.DefaultGate())
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, vs...)
	}
	if errs := checkGate(all); len(errs) != 0 {
		t.Fatalf("real chains failed the gate check: %v", errs)
	}
	// Force the first regression hop to pass: the check must catch it.
	for i := range all {
		if all[i].Regression {
			all[i].Pass = true
			break
		}
	}
	if errs := checkGate(all); len(errs) != 1 {
		t.Fatalf("forced pass on a regression hop gave %d errors, want 1", len(errs))
	}
}
