package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildUnionClippedToParent(t *testing.T) {
	spans := []spanRecord{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent: clipped
		{ID: 5, Parent: 2, Name: "leaf", Start: 12, End: 18},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{
		1: 100 - 40 - 10, // children cover [10,50) and [90,100)
		2: 20 - 6,        // only its own child counts, not its siblings
		3: 30,
		4: 30,
		5: 6,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time %v, want %v", id, self[id], w)
		}
	}
}

func TestAdoptByRequestJoinsServerSpansToTheirAck(t *testing.T) {
	spans := []spanRecord{
		{ID: 1, Name: "collect.upload", Req: "phone0", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "collect.ack", Req: "k1", Start: 0, End: 40},
		{ID: 3, Parent: 1, Name: "collect.ack", Req: "k2", Start: 40, End: 100},
		{ID: 4, Name: "collect.store_append", Req: "k2", Start: 50, End: 80},
		{ID: 5, Name: "serve.notify", Req: "k1", Start: 30, End: 35},
		{ID: 6, Name: "collect.store_append", Req: "unknown", Start: 0, End: 1},
	}
	adoptByRequest(spans, "collect.ack", "collect.store_append", "serve.notify")
	parents := map[int64]int64{4: 3, 5: 2, 6: 0}
	for _, s := range spans {
		if want, ok := parents[s.ID]; ok && s.Parent != want {
			t.Errorf("span %d parent %d, want %d", s.ID, s.Parent, want)
		}
	}
	self := selfTimes(spans)
	if self[3] != 30 || self[2] != 35 {
		t.Errorf("ack self times %v and %v, want 30 and 35", self[3], self[2])
	}
}

func TestNilTracerIsANoop(t *testing.T) {
	var tr *tracer
	sp := tr.begin("x", "r", 0)
	sp.end()
	if id := tr.record("y", "r", 0, time.Now(), time.Now()); id != 0 {
		t.Fatalf("record on nil tracer returned id %d", id)
	}
	if tr.records() != nil {
		t.Fatal("nil tracer has records")
	}
}

func TestTracerRecordsParentAndRequest(t *testing.T) {
	tr := newTracer()
	root := tr.begin("revision.hop", "clean-0/hop1", 0)
	child := tr.begin("revision.analyze", "clean-0/hop1", root.id)
	child.end()
	root.end()
	recs := tr.records()
	if len(recs) != 2 {
		t.Fatalf("%d records, want 2", len(recs))
	}
	if recs[1].Parent != recs[0].ID || recs[1].Req != "clean-0/hop1" || recs[0].End < recs[1].End {
		t.Fatalf("records %+v do not nest", recs)
	}
}
