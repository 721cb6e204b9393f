package trace

import (
	"reflect"
	"testing"
)

// referenceScrubString and referenceScrubBundle are ScrubString and
// ScrubBundle as they were before the PII byte check and the per-bundle
// memo: all three regexes on every string of every record.
func referenceScrubString(s string) string {
	s = reEmail.ReplaceAllString(s, redacted)
	s = reIPv4.ReplaceAllString(s, redacted)
	s = rePhone.ReplaceAllString(s, redacted)
	return s
}

func referenceScrubBundle(b *TraceBundle) *TraceBundle {
	if b == nil {
		return nil
	}
	out := &TraceBundle{
		Key: b.Key,
		Event: EventTrace{
			AppID:   referenceScrubString(b.Event.AppID),
			UserID:  ScrubUserID(b.Event.UserID),
			Device:  b.Event.Device,
			TraceID: b.Event.TraceID,
			Records: make([]Record, len(b.Event.Records)),
		},
		Util: UtilizationTrace{
			AppID:    referenceScrubString(b.Util.AppID),
			PID:      0,
			PeriodMS: b.Util.PeriodMS,
			Samples:  make([]UtilizationSample, len(b.Util.Samples)),
		},
	}
	for i, r := range b.Event.Records {
		r.Key.Class = referenceScrubString(r.Key.Class)
		r.Key.Callback = referenceScrubString(r.Key.Callback)
		out.Event.Records[i] = r
	}
	copy(out.Util.Samples, b.Util.Samples)
	return out
}

// FuzzScrubBundleMatchesReference checks that ScrubBundle deep-equals
// the reference on bundles whose records repeat and mix fuzzed keys,
// and that ScrubString agrees with the reference on each string.
func FuzzScrubBundleMatchesReference(f *testing.F) {
	f.Add("k9mail", "alice@example.com", "Lcom/fsck/k9/activity/MessageList", "onResume", "dial 614-555-0199", uint8(9), false)
	f.Add("app 10.0.0.1", "user-00c0ffee", "La/B", "bob@example.com", "+1 (614) 555.0199", uint8(255), true)
	f.Add("", "", "", "", "", uint8(0), false)
	f.Add("1.2.3.4.5", "12345678", "a@b.cc", "1234567", "@@", uint8(42), true)
	f.Fuzz(func(t *testing.T, app, user, class, callback, other string, shape uint8, nilSlices bool) {
		for _, s := range []string{app, user, class, callback, other} {
			if got, want := ScrubString(s), referenceScrubString(s); got != want {
				t.Fatalf("ScrubString(%q) = %q, reference %q", s, got, want)
			}
		}
		b := &TraceBundle{
			Key:   callback,
			Event: EventTrace{AppID: app, UserID: user, Device: other, TraceID: class},
			Util:  UtilizationTrace{AppID: other, PID: int(shape), PeriodMS: 500},
		}
		if !nilSlices {
			b.Event.Records = []Record{}
			b.Util.Samples = []UtilizationSample{{TimestampMS: 1, Util: UtilizationVector{0.5}}}
		}
		keys := []string{class, callback, other, class + other, ""}
		for i := 0; i < int(shape%32); i++ {
			k := EventKey{Class: keys[(i+int(shape>>5))%len(keys)], Callback: keys[i*3%len(keys)]}
			b.Event.Records = append(b.Event.Records, Record{TimestampMS: int64(i), Dir: Direction(i%2 + 1), Key: k})
		}
		got, want := ScrubBundle(b), referenceScrubBundle(b)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ScrubBundle\n  %+v\nreference\n  %+v", got, want)
		}
	})
}
