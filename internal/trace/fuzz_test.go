package trace

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadText pins down the Fig-5 text codec: parsing never panics,
// every successfully parsed trace re-serializes, and the serialized
// form parses back to the identical records (the grammar in codec.go is
// exactly the set of strings WriteText can produce). The lenient reader
// must agree with the strict one on well-formed input and must absorb
// the malformed lines the strict one rejects.
func FuzzReadText(f *testing.F) {
	seeds := []string{
		"",
		"# comment only\n\n",
		"28223867 + Lcom/fsck/k9/service/MailService; onDestroy\n" +
			"28223868 - Lcom/fsck/k9/service/MailService; onDestroy\n",
		// Zero-duration event: enter and exit in the same millisecond.
		"10 + La/B; onCreate\n10 - La/B; onCreate\n",
		// Duplicate timestamps across distinct events.
		"5 + La/B; onStart\n5 + Lc/D; onStart\n6 - Lc/D; onStart\n6 - La/B; onStart\n",
		// Structurally broken but grammatically fine: exit before enter.
		"5 - La/B; onStop\n",
		// Callback containing the separator.
		"1 + La/B; run;sub\n",
		// Malformed lines of every kind.
		"x + La/B; cb\n",
		"-1 + La/B; cb\n",
		"1 * La/B; cb\n",
		"1 + ; cb\n",
		"1 + La/B cb\n",
		"1 +\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadText(bytes.NewReader(data))
		lenTr, stats, lenErr := ReadTextLenient(bytes.NewReader(data))
		if err != nil {
			var pe *ParseTextError
			if errors.As(err, &pe) {
				// A line-level reject must not sink the lenient reader.
				if lenErr != nil {
					t.Fatalf("strict failed with line error %v but lenient failed too: %v", err, lenErr)
				}
				if stats.Skipped == 0 {
					t.Fatalf("strict rejected a line (%v) but lenient skipped none", err)
				}
			}
			return
		}
		// Strict and lenient agree on well-formed input.
		if lenErr != nil {
			t.Fatalf("strict parsed but lenient failed: %v", lenErr)
		}
		if stats.Skipped != 0 || len(stats.Errors) != 0 {
			t.Fatalf("strict parsed cleanly but lenient skipped %d lines", stats.Skipped)
		}
		if !reflect.DeepEqual(tr.Records, lenTr.Records) {
			t.Fatalf("strict and lenient disagree: %v vs %v", tr.Records, lenTr.Records)
		}
		if stats.Records != len(tr.Records) {
			t.Fatalf("stats.Records = %d, parsed %d", stats.Records, len(tr.Records))
		}
		// Round trip: everything the parser accepts, the writer accepts,
		// and the written form parses back identically.
		var buf bytes.Buffer
		if werr := tr.WriteText(&buf); werr != nil {
			t.Fatalf("parsed trace does not re-serialize: %v", werr)
		}
		again, rerr := ReadText(&buf)
		if rerr != nil {
			t.Fatalf("re-parse of serialized trace failed: %v", rerr)
		}
		if !reflect.DeepEqual(tr.Records, again.Records) {
			t.Fatalf("round trip changed records:\n  first  %v\n  second %v", tr.Records, again.Records)
		}
	})
}

// FuzzDecodeBundle pins down the JSON-lines bundle codec and everything
// the ingestion path runs on a decoded bundle: Validate, ScrubBundle,
// ContentKey and VerifyContentKey must be panic-free on arbitrary
// decodable input, the encode/decode round trip must be the identity,
// and the content key must be deterministic, Key-independent and
// stable across scrubbing (scrubbing is idempotent, so the server
// re-scrubbing a scrubbed bundle must preserve the client's key).
func FuzzDecodeBundle(f *testing.F) {
	var sample bytes.Buffer
	_ = EncodeBundle(&sample, &TraceBundle{
		Event: EventTrace{
			AppID: "k9mail", UserID: "user-1", Device: "nexus6", TraceID: "t1",
			Records: []Record{
				{TimestampMS: 1, Dir: Enter, Key: EventKey{Class: "La/B", Callback: "onCreate"}},
				{TimestampMS: 1, Dir: Exit, Key: EventKey{Class: "La/B", Callback: "onCreate"}},
			},
		},
		Util: UtilizationTrace{AppID: "k9mail", PID: 7, PeriodMS: 500,
			Samples: []UtilizationSample{{TimestampMS: 0}}},
	})
	seeds := [][]byte{
		sample.Bytes(),
		[]byte("{}"),
		[]byte(`{"key":"deadbeefdeadbeef","event":{"appId":"a"},"util":{}}`),
		[]byte(`{"event":{"records":[{"timestampMillis":-1,"dir":9,"key":{"class":";","callback":""}}]}}`),
		[]byte(`{"util":{"samples":[{"timestampMillis":0,"util":[2,0,0,0,0,0,0]}]}}`),
		[]byte(`not json`),
		[]byte(""),
		[]byte(`{"event":`),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBundle(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Everything the server runs on a freshly decoded bundle must be
		// panic-free, whatever the bundle holds.
		_ = b.Event.Validate()
		_ = b.Util.Validate()
		key := ContentKey(b)
		if key2 := ContentKey(b); key2 != key {
			t.Fatalf("content key not deterministic: %s vs %s", key, key2)
		}
		stamped := *b
		stamped.Key = key
		if verr := VerifyContentKey(&stamped); verr != nil {
			t.Fatalf("freshly stamped key does not verify: %v", verr)
		}
		if ContentKey(&stamped) != key {
			t.Fatal("content key depends on the Key field")
		}
		scrubbed := ScrubBundle(&stamped)
		if ContentKey(ScrubBundle(scrubbed)) != ContentKey(scrubbed) {
			t.Fatal("scrubbing is not idempotent: re-scrub changed the content key")
		}
		// Wire round trip is the identity.
		var buf bytes.Buffer
		if err := EncodeBundle(&buf, b); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if n := strings.Count(buf.String(), "\n"); n != 1 {
			t.Fatalf("encoded bundle spans %d lines, want 1", n)
		}
		again, err := DecodeBundle(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(b, again) {
			t.Fatalf("wire round trip changed the bundle:\n  first  %+v\n  second %+v", b, again)
		}
	})
}
