package main

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/trace"
)

// keysOf returns the content keys of stamped copies of bundles.
func keysOf(bundles []*trace.TraceBundle) []string {
	out := make([]string, len(bundles))
	for i, b := range bundles {
		out[i] = stamp(b).Key
	}
	return out
}

func TestHotScheduleIsSeededAndStratified(t *testing.T) {
	const window = 20 * time.Second
	a, b := hotSchedule(1, window, hotPhonesPerS), hotSchedule(1, window, hotPhonesPerS)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	c := hotSchedule(2, window, hotPhonesPerS)
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 1 and 2 gave the same schedule")
	}
	// Stratified: every seed offers the same gaps, in its own order, all
	// inside the window.
	if len(a) != 20 || len(c) != 20 {
		t.Fatalf("%d and %d phones, want 20", len(a), len(c))
	}
	sum := func(s []arrival) (batches int) {
		for _, x := range s {
			batches += x.Batch
		}
		return batches
	}
	if sum(a) != sum(c) || sum(a) != 20*hotBatch {
		t.Fatalf("batch totals %d and %d, want %d each", sum(a), sum(c), 20*hotBatch)
	}
	if last := a[len(a)-1].Due; last >= window || last != c[len(c)-1].Due {
		t.Fatalf("last arrivals %v and %v, want the same offset inside %v", last, c[len(c)-1].Due, window)
	}
}

func TestHotInputsAreSeeded(t *testing.T) {
	const window = 3 * time.Second
	a, err := genHot(1, window)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genHot(1, window)
	if err != nil {
		t.Fatal(err)
	}
	c, err := genHot(2, window)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keysOf(a.corpus), keysOf(b.corpus)) || !reflect.DeepEqual(a.schedule, b.schedule) {
		t.Fatal("the same seed gave different hot-app inputs")
	}
	if reflect.DeepEqual(keysOf(a.corpus[:10]), keysOf(c.corpus[:10])) {
		t.Fatal("seeds 1 and 2 gave the same hot-app corpus")
	}
	for i, p := range a.phones {
		if len(p) != a.schedule[i].Batch {
			t.Fatalf("phone %d has %d sessions, schedule says %d", i, len(p), a.schedule[i].Batch)
		}
	}
}

func TestFleetInputsAreSeededAndDistinct(t *testing.T) {
	a, err := genFleet(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genFleet(1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := genFleet(2)
	if err != nil {
		t.Fatal(err)
	}
	stream := func(in *fleetInputs, n int) []*trace.TraceBundle {
		out := make([]*trace.TraceBundle, n)
		for k := range out {
			out[k] = clientItem(in, 2, k%2, k/2)
		}
		return out
	}
	// Long enough to wrap the pool into a second round.
	n := 2 * len(a.pool) * fleetUsersPerApp
	ka, kb, kc := keysOf(stream(a, n)), keysOf(stream(b, n)), keysOf(stream(c, n))
	if !reflect.DeepEqual(ka, kb) {
		t.Fatal("the same seed gave different fleet streams")
	}
	if reflect.DeepEqual(ka, kc) {
		t.Fatal("seeds 1 and 2 gave the same fleet stream")
	}
	seen := make(map[string]bool)
	for k := 0; k < fleetEarlier; k++ {
		seen[stamp(a.item(k)).Key] = true
	}
	for i, k := range ka {
		if seen[k] {
			t.Fatalf("stream item %d repeats content key %s", i, k)
		}
		seen[k] = true
	}
}

func TestGateInputsAreSeeded(t *testing.T) {
	a, err := genGate(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genGate(1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := genGate(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != gateChainSets*len(gateKinds) {
		t.Fatalf("%d chains, want %d", len(a), gateChainSets*len(gateKinds))
	}
	differ := false
	for i := range a {
		if a[i].Chain.Culprit != b[i].Chain.Culprit || a[i].Name != b[i].Name {
			t.Fatalf("chain %d differs under the same seed", i)
		}
		for v := range a[i].Corpora {
			if !reflect.DeepEqual(keysOf(a[i].Corpora[v]), keysOf(b[i].Corpora[v])) {
				t.Fatalf("chain %d version %d corpus differs under the same seed", i, v)
			}
			if !reflect.DeepEqual(keysOf(a[i].Corpora[v]), keysOf(c[i].Corpora[v])) {
				differ = true
			}
		}
	}
	if !differ {
		t.Fatal("seeds 1 and 2 gave the same chain corpora")
	}
}
