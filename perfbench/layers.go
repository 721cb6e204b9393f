package main

import (
	"runtime"
	"strings"
	"time"

	"repro/internal/collect"
	"repro/internal/collect/seglog"
	"repro/internal/trace"
	"repro/internal/trace/binenc"
)

// tracedStore is the Store a workload hands the collect server via
// WithStore: it forwards to the SegStore and, in a traced run, records
// a span around every Append. Opening and loading are timed in every
// run, because replaying the log is part of set-up; the server loads
// its store once, in NewServer.
type tracedStore struct {
	*collect.SegStore
	tr *tracer

	replayTime time.Duration
}

func (s *tracedStore) Append(b *trace.TraceBundle) error {
	sp := s.tr.begin("collect.store_append", b.Key, 0)
	err := s.SegStore.Append(b)
	sp.end()
	return err
}

func (s *tracedStore) Load() (map[string][]*trace.TraceBundle, int, error) {
	t := time.Now()
	m, n, err := s.SegStore.Load()
	s.replayTime += time.Since(t)
	return m, n, err
}

// openStore opens a SegStore and returns it wrapped, with the time the
// log took to open (replaying its segments) as its replay time so far.
func openStore(dir string, tr *tracer) (*tracedStore, error) {
	t := time.Now()
	st, err := collect.NewSegStore(dir, seglog.Options{})
	if err != nil {
		return nil, err
	}
	return &tracedStore{SegStore: st, tr: tr, replayTime: time.Since(t)}, nil
}

// liveHeapMB forces a collection and returns the live Go heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// codecTimes times binenc.EncodeBundle and DecodeBundle over the given
// (stamped) bundles and returns the median microseconds per call.
func codecTimes(bundles []*trace.TraceBundle) (encUS, decUS float64, err error) {
	var enc, dec []float64
	var buf []byte
	for _, b := range bundles {
		t := time.Now()
		buf, err = binenc.EncodeBundle(buf[:0], b)
		enc = append(enc, us(time.Since(t)))
		if err != nil {
			return 0, 0, err
		}
		t = time.Now()
		_, err = binenc.DecodeBundle(buf)
		dec = append(dec, us(time.Since(t)))
		if err != nil {
			return 0, 0, err
		}
	}
	return median(enc), median(dec), nil
}

// zeroLayers sets every per-layer metric of a layer the workload does
// not exercise to 0, with a note saying why.
func (o *outcome) zeroLayers(why string, names ...string) {
	for _, n := range names {
		o.Layer[n] = 0
	}
	o.note("%s: 0 (%s)", strings.Join(names, ", "), why)
}
