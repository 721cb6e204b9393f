package trace

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// These tests pin the edge cases the codec grammar deliberately
// accepts (empty trace, zero-duration events, duplicate timestamps)
// and the ones it rejects, plus the lenient readers' accounting.

func TestEmptyTraceRoundTripsAndValidates(t *testing.T) {
	empty := &EventTrace{}
	if err := empty.Validate(); err != nil {
		t.Errorf("empty trace invalid: %v", err)
	}
	var buf bytes.Buffer
	if err := empty.WriteText(&buf); err != nil {
		t.Fatalf("empty trace does not serialize: %v", err)
	}
	if buf.Len() != 0 {
		t.Errorf("empty trace serialized to %q", buf.String())
	}
	back, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Records) != 0 {
		t.Errorf("empty trace read back %d records", len(back.Records))
	}
}

func TestZeroDurationEventIsValid(t *testing.T) {
	tr := &EventTrace{Records: []Record{
		{TimestampMS: 10, Dir: Enter, Key: EventKey{Class: "La/B", Callback: "onCreate"}},
		{TimestampMS: 10, Dir: Exit, Key: EventKey{Class: "La/B", Callback: "onCreate"}},
	}}
	if err := tr.Validate(); err != nil {
		t.Errorf("zero-duration event rejected: %v", err)
	}
}

func TestDuplicateTimestampsAreValid(t *testing.T) {
	tr := &EventTrace{Records: []Record{
		{TimestampMS: 5, Dir: Enter, Key: EventKey{Class: "La/B", Callback: "a"}},
		{TimestampMS: 5, Dir: Enter, Key: EventKey{Class: "Lc/D", Callback: "b"}},
		{TimestampMS: 5, Dir: Exit, Key: EventKey{Class: "Lc/D", Callback: "b"}},
		{TimestampMS: 5, Dir: Exit, Key: EventKey{Class: "La/B", Callback: "a"}},
	}}
	if err := tr.Validate(); err != nil {
		t.Errorf("duplicate timestamps rejected: %v", err)
	}
}

func TestExitBeforeEnterParsesButFailsValidate(t *testing.T) {
	// The grammar accepts the line (tooling can inspect broken traces);
	// structural validation rejects it.
	tr, err := ReadText(strings.NewReader("5 - La/B; onStop\n"))
	if err != nil {
		t.Fatalf("exit-before-enter must parse: %v", err)
	}
	if err := tr.Validate(); !errors.Is(err, ErrExitBeforeEnter) {
		t.Errorf("Validate = %v, want ErrExitBeforeEnter", err)
	}
}

func TestValidateRejectsNegativeTimestampAndBadKey(t *testing.T) {
	neg := &EventTrace{Records: []Record{
		{TimestampMS: -1, Dir: Enter, Key: EventKey{Class: "La/B", Callback: "cb"}},
	}}
	if err := neg.Validate(); !errors.Is(err, ErrBadTimestamp) {
		t.Errorf("negative timestamp: Validate = %v, want ErrBadTimestamp", err)
	}
	for _, key := range []EventKey{
		{Class: "", Callback: "cb"},
		{Class: "La/B;", Callback: "cb"},
		{Class: " La/B", Callback: "cb"},
		{Class: "La/B", Callback: "cb\n"},
	} {
		bad := &EventTrace{Records: []Record{
			{TimestampMS: 0, Dir: Enter, Key: key},
		}}
		if err := bad.Validate(); !errors.Is(err, ErrBadKey) {
			t.Errorf("key %+v: Validate = %v, want ErrBadKey", key, err)
		}
	}
}

func TestWriteTextRejectsUnwritableRecords(t *testing.T) {
	for _, tr := range []*EventTrace{
		{Records: []Record{{TimestampMS: 0, Dir: Enter, Key: EventKey{Class: "La;B", Callback: "cb"}}}},
		{Records: []Record{{TimestampMS: -5, Dir: Enter, Key: EventKey{Class: "La/B", Callback: "cb"}}}},
	} {
		var buf bytes.Buffer
		if err := tr.WriteText(&buf); err == nil {
			t.Errorf("unwritable trace %+v serialized to %q", tr.Records[0], buf.String())
		}
		if buf.Len() != 0 {
			t.Errorf("rejected trace still wrote %q (validation must precede output)", buf.String())
		}
	}
}

func TestUtilizationValidateRejectsBadSamples(t *testing.T) {
	base := func() *UtilizationTrace {
		return &UtilizationTrace{PeriodMS: 500, Samples: []UtilizationSample{
			{TimestampMS: 0}, {TimestampMS: 500},
		}}
	}
	neg := base()
	neg.Samples[1].TimestampMS = -500
	if err := neg.Validate(); !errors.Is(err, ErrBadTimestamp) {
		t.Errorf("negative sample timestamp: Validate = %v, want ErrBadTimestamp", err)
	}
	out := base()
	out.Samples[0].Util[0] = 1.5 // bypass Set's clamping, as a decoded wire value can
	if err := out.Validate(); !errors.Is(err, ErrBadUtilization) {
		t.Errorf("out-of-range utilization: Validate = %v, want ErrBadUtilization", err)
	}
}

func TestReadTextLenientAccounting(t *testing.T) {
	input := strings.Join([]string{
		"# header comment",
		"1 + La/B; onCreate",
		"bogus line",
		"",
		"2 - La/B; onCreate",
		"3 ? La/B; onCreate",
	}, "\n") + "\n"
	tr, stats, err := ReadTextLenient(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 2 {
		t.Errorf("kept %d records, want 2", len(tr.Records))
	}
	if stats.Lines != 6 || stats.Records != 2 || stats.Skipped != 2 {
		t.Errorf("stats = %+v, want 6 lines, 2 records, 2 skipped", stats)
	}
	if len(stats.Errors) != 2 {
		t.Fatalf("retained %d errors, want 2", len(stats.Errors))
	}
	if stats.Errors[0].Line != 3 || stats.Errors[1].Line != 6 {
		t.Errorf("error lines = %d, %d; want 3 and 6", stats.Errors[0].Line, stats.Errors[1].Line)
	}
}

func TestReadTextLenientCapsRetainedErrors(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < maxRetainedLineErrors+10; i++ {
		sb.WriteString("broken\n")
	}
	_, stats, err := ReadTextLenient(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Skipped != maxRetainedLineErrors+10 {
		t.Errorf("skipped = %d, want every line counted", stats.Skipped)
	}
	if len(stats.Errors) != maxRetainedLineErrors {
		t.Errorf("retained %d errors, want the cap %d", len(stats.Errors), maxRetainedLineErrors)
	}
}

func TestScanBundlesLenientAccounting(t *testing.T) {
	var corpus bytes.Buffer
	good := &TraceBundle{Event: EventTrace{AppID: "app", UserID: "u", TraceID: "t"}}
	_ = EncodeBundle(&corpus, good)
	corpus.WriteString("garbage\n")
	_ = EncodeBundle(&corpus, good)

	var kept int
	var bad []BadBundleLine
	err := ScanBundlesLenient(&corpus,
		func(b *TraceBundle) error { kept++; return nil },
		func(b BadBundleLine) error { bad = append(bad, b); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if kept != 2 {
		t.Errorf("kept %d bundles, want 2", kept)
	}
	if len(bad) != 1 || bad[0].Line != 2 || bad[0].Text != "garbage" {
		t.Fatalf("bad = %+v, want line 2 %q", bad, "garbage")
	}
	if bad[0].Err == nil {
		t.Error("bad line carries no error")
	}
}

func TestContentKeyDetectsMutationAndIgnoresKeyField(t *testing.T) {
	b := &TraceBundle{Event: EventTrace{AppID: "app", UserID: "user-1", TraceID: "t1"}}
	key := ContentKey(b)
	if len(key) != 16 {
		t.Fatalf("key %q, want 16 hex chars", key)
	}
	b.Key = key
	if err := VerifyContentKey(b); err != nil {
		t.Fatalf("stamped key does not verify: %v", err)
	}
	if ContentKey(b) != key {
		t.Error("content key depends on the Key field itself")
	}
	// Any content mutation invalidates the stamp.
	b.Event.TraceID = "t2"
	if err := VerifyContentKey(b); err == nil {
		t.Error("mutated bundle still verifies")
	}
	// A bundle without a key has no identity and fails verification.
	if err := VerifyContentKey(&TraceBundle{Event: EventTrace{AppID: "x"}}); err == nil {
		t.Error("keyless bundle verifies")
	}
}
