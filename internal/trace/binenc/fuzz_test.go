package binenc

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/trace"
)

// FuzzBinaryBundle throws arbitrary bytes at the payload decoder. The
// decoder must never panic; any payload it accepts must re-encode
// canonically — decode(encode(decode(p))) equals decode(p) — and its
// routable header must agree with the full decode. (Raw-byte inputs may
// decode successfully yet re-encode to different bytes when a varint
// was non-minimally encoded, so the invariant is canonical-form
// convergence, not byte identity of the input.)
func FuzzBinaryBundle(f *testing.F) {
	for _, b := range edgeBundles() {
		payload, err := EncodeBundle(nil, b)
		if err != nil {
			f.Fatalf("seed encode: %v", err)
		}
		f.Add(payload)
		if len(payload) > 4 {
			mut := append([]byte(nil), payload...)
			mut[len(mut)/2] ^= 0xff
			f.Add(mut)
			f.Add(payload[:len(payload)/2])
		}
	}
	f.Add([]byte{})
	f.Add([]byte{Version})
	f.Fuzz(func(t *testing.T, payload []byte) {
		b, err := DecodeBundle(payload)
		if err != nil {
			return
		}
		h, err := FrameHeader(payload)
		if err != nil {
			t.Fatalf("accepted payload rejected by FrameHeader: %v", err)
		}
		if h.Key != b.Key || h.AppID != b.Event.AppID {
			t.Fatalf("header {%q %q} disagrees with decode {%q %q}", h.Key, h.AppID, b.Key, b.Event.AppID)
		}
		re, err := EncodeBundle(nil, b)
		if err != nil {
			t.Fatalf("re-encode of accepted payload failed: %v", err)
		}
		b2, err := DecodeBundle(re)
		if err != nil {
			t.Fatalf("canonical re-encoding does not decode: %v", err)
		}
		re2, err := EncodeBundle(nil, b2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatal("canonical form not a fixed point")
		}
		// Frame round trip of the canonical payload.
		fr := AppendFrame(nil, re)
		got, err := ReadFrame(bytes.NewReader(fr), 0, nil)
		if err != nil || !bytes.Equal(got, re) {
			t.Fatalf("frame round trip: %v", err)
		}
		// ContentKey round-trips through JSON, which rejects NaN/Inf
		// utilization floats — the binary codec carries them (it is a
		// pure serialization layer), so only hash finite bundles.
		finite := true
		for i := range b.Util.Samples {
			for _, v := range b.Util.Samples[i].Util {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					finite = false
				}
			}
		}
		if finite {
			_ = trace.ContentKey(b)
		}
	})
}
