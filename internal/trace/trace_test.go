package trace

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func rec(ts int64, dir Direction, cls, cb string) Record {
	return Record{TimestampMS: ts, Dir: dir, Key: EventKey{Class: cls, Callback: cb}}
}

func TestComponentString(t *testing.T) {
	want := map[Component]string{
		CPU: "cpu", Display: "display", WiFi: "wifi", Cellular: "cellular",
		GPS: "gps", Audio: "audio", Sensor: "sensor",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), s)
		}
	}
	if got := Component(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown component String = %q", got)
	}
	if len(Components()) != NumComponents {
		t.Errorf("Components() has %d entries, want %d", len(Components()), NumComponents)
	}
}

func TestUtilizationVectorClamping(t *testing.T) {
	var u UtilizationVector
	u.Set(CPU, 1.5)
	if u.Get(CPU) != 1 {
		t.Errorf("Set clamps high: got %v", u.Get(CPU))
	}
	u.Set(CPU, -0.5)
	if u.Get(CPU) != 0 {
		t.Errorf("Set clamps low: got %v", u.Get(CPU))
	}
	u.Set(CPU, 0.7)
	u.Add(CPU, 0.6)
	if u.Get(CPU) != 1 {
		t.Errorf("Add clamps: got %v", u.Get(CPU))
	}
	// Unknown components are ignored, not panics.
	u.Set(Component(0), 0.5)
	u.Set(Component(42), 0.5)
	if u.Get(Component(42)) != 0 {
		t.Error("unknown component should read 0")
	}
}

func TestValidateOK(t *testing.T) {
	tr := &EventTrace{Records: []Record{
		rec(10, Enter, "LA", "onCreate"),
		rec(20, Exit, "LA", "onCreate"),
		rec(20, Enter, "LA", "onResume"),
		rec(25, Exit, "LA", "onResume"),
	}}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	tests := []struct {
		name    string
		records []Record
		wantErr error
	}{
		{
			"unsorted",
			[]Record{rec(20, Enter, "LA", "x"), rec(10, Exit, "LA", "x")},
			ErrUnsortedRecords,
		},
		{
			"exit without enter",
			[]Record{rec(10, Exit, "LA", "x")},
			ErrExitBeforeEnter,
		},
		{
			"unbalanced open",
			[]Record{rec(10, Enter, "LA", "x")},
			ErrUnbalanced,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tr := &EventTrace{Records: tt.records}
			if err := tr.Validate(); !errors.Is(err, tt.wantErr) {
				t.Errorf("Validate = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestValidateBadDirection(t *testing.T) {
	tr := &EventTrace{Records: []Record{{TimestampMS: 1, Dir: Direction(9)}}}
	if err := tr.Validate(); err == nil {
		t.Error("invalid direction accepted")
	}
}

func TestPairSimple(t *testing.T) {
	tr := &EventTrace{Records: []Record{
		rec(10, Enter, "LA", "onCreate"),
		rec(30, Exit, "LA", "onCreate"),
		rec(40, Enter, "LB", "onClick"),
		rec(45, Exit, "LB", "onClick"),
	}}
	ins, err := tr.Pair()
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) != 2 {
		t.Fatalf("got %d instances, want 2", len(ins))
	}
	if ins[0].DurationMS() != 20 || ins[1].DurationMS() != 5 {
		t.Errorf("durations = %d, %d", ins[0].DurationMS(), ins[1].DurationMS())
	}
	if ins[0].StartMS != 10 || ins[1].StartMS != 40 {
		t.Errorf("starts = %d, %d", ins[0].StartMS, ins[1].StartMS)
	}
}

func TestPairNested(t *testing.T) {
	// Re-entrant callback: the same key nests; matching is LIFO.
	tr := &EventTrace{Records: []Record{
		rec(10, Enter, "LA", "f"),
		rec(12, Enter, "LA", "f"),
		rec(14, Exit, "LA", "f"),
		rec(20, Exit, "LA", "f"),
	}}
	ins, err := tr.Pair()
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) != 2 {
		t.Fatalf("got %d instances, want 2", len(ins))
	}
	// Sorted by start: outer first.
	if ins[0].StartMS != 10 || ins[0].EndMS != 20 {
		t.Errorf("outer = %+v", ins[0])
	}
	if ins[1].StartMS != 12 || ins[1].EndMS != 14 {
		t.Errorf("inner = %+v", ins[1])
	}
}

func TestKeysSortedDistinct(t *testing.T) {
	tr := &EventTrace{Records: []Record{
		rec(10, Enter, "LB", "z"),
		rec(11, Exit, "LB", "z"),
		rec(12, Enter, "LA", "a"),
		rec(13, Exit, "LA", "a"),
		rec(14, Enter, "LA", "a"),
		rec(15, Exit, "LA", "a"),
	}}
	keys := tr.Keys()
	if len(keys) != 2 {
		t.Fatalf("got %d keys, want 2", len(keys))
	}
	if keys[0].Class != "LA" || keys[1].Class != "LB" {
		t.Errorf("keys not sorted: %v", keys)
	}
}

func TestUtilizationValidate(t *testing.T) {
	ut := &UtilizationTrace{PeriodMS: 0}
	if err := ut.Validate(); !errors.Is(err, ErrBadPeriod) {
		t.Errorf("zero period: %v", err)
	}
	ut = &UtilizationTrace{PeriodMS: 500, Samples: []UtilizationSample{
		{TimestampMS: 100}, {TimestampMS: 50},
	}}
	if err := ut.Validate(); !errors.Is(err, ErrUnsortedRecords) {
		t.Errorf("unsorted samples: %v", err)
	}
}

func TestTextRoundTrip(t *testing.T) {
	tr := &EventTrace{Records: []Record{
		rec(28223867, Enter, "Lcom/fsck/k9/service/MailService", "onDestroy"),
		rec(28223867, Exit, "Lcom/fsck/k9/service/MailService", "onDestroy"),
		rec(28224781, Enter, "Lcom/fsck/k9/activity/MessageList", "onItemClick"),
		rec(28224844, Exit, "Lcom/fsck/k9/activity/MessageList", "onItemClick"),
	}}
	text := tr.Text()
	// Exactly the paper's Fig 5 content.
	if !strings.Contains(text, "28223867 + Lcom/fsck/k9/service/MailService; onDestroy") {
		t.Errorf("text format mismatch:\n%s", text)
	}
	back, err := ReadText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Records) != len(tr.Records) {
		t.Fatalf("round trip lost records: %d vs %d", len(back.Records), len(tr.Records))
	}
	for i := range tr.Records {
		if back.Records[i] != tr.Records[i] {
			t.Errorf("record %d: got %+v, want %+v", i, back.Records[i], tr.Records[i])
		}
	}
}

func TestReadTextSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\n10 + LA; f\n11 - LA; f\n"
	tr, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 2 {
		t.Errorf("got %d records, want 2", len(tr.Records))
	}
}

func TestReadTextErrors(t *testing.T) {
	bad := []string{
		"notanumber + LA; f",
		"10 * LA; f",
		"10 + LAnosemicolon f",
		"10 +",
		"10 + ; f",
	}
	for _, line := range bad {
		if _, err := ReadText(strings.NewReader(line)); err == nil {
			t.Errorf("line %q accepted", line)
		} else {
			var pe *ParseTextError
			if !errors.As(err, &pe) {
				t.Errorf("line %q: error %T, want *ParseTextError", line, err)
			}
		}
	}
}

func TestBundleJSONRoundTrip(t *testing.T) {
	b := &TraceBundle{
		Event: EventTrace{
			AppID: "k9", UserID: "u1", Device: "nexus6", TraceID: "t1",
			Records: []Record{rec(1, Enter, "L", "f"), rec(2, Exit, "L", "f")},
		},
		Util: UtilizationTrace{
			AppID: "k9", PID: 1234, PeriodMS: 500,
			Samples: []UtilizationSample{{TimestampMS: 1}},
		},
	}
	var sb strings.Builder
	if err := EncodeBundle(&sb, b); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeBundle(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Event.AppID != "k9" || len(back.Event.Records) != 2 || back.Util.PID != 1234 {
		t.Errorf("round trip = %+v", back)
	}
}

func TestDecodeBundleError(t *testing.T) {
	if _, err := DecodeBundle(strings.NewReader("{not json")); err == nil {
		t.Error("bad JSON accepted")
	}
}

func TestScrubString(t *testing.T) {
	tests := []struct{ in, wantGone string }{
		{"connect to 192.168.1.100 failed", "192.168.1.100"},
		{"call +1 614-555-0199 now", "614-555-0199"},
		{"mail bob@example.com", "bob@example.com"},
	}
	for _, tt := range tests {
		got := ScrubString(tt.in)
		if strings.Contains(got, tt.wantGone) {
			t.Errorf("ScrubString(%q) = %q still contains PII", tt.in, got)
		}
		if !strings.Contains(got, "<redacted>") {
			t.Errorf("ScrubString(%q) = %q lacks redaction marker", tt.in, got)
		}
	}
	if got := ScrubString("Lcom/fsck/k9/activity/MessageList"); got != "Lcom/fsck/k9/activity/MessageList" {
		t.Errorf("class name mangled: %q", got)
	}
}

func TestScrubUserIDStableAndPseudonymous(t *testing.T) {
	a := ScrubUserID("alice@example.com")
	b := ScrubUserID("alice@example.com")
	c := ScrubUserID("bob@example.com")
	if a != b {
		t.Errorf("scrub not stable: %q vs %q", a, b)
	}
	if a == c {
		t.Errorf("distinct users collide: %q", a)
	}
	if strings.Contains(a, "alice") {
		t.Errorf("pseudonym leaks identity: %q", a)
	}
	if ScrubUserID(a) != a {
		t.Errorf("double scrub changed pseudonym: %q -> %q", a, ScrubUserID(a))
	}
}

func TestScrubBundleDeepCopy(t *testing.T) {
	b := &TraceBundle{
		Event: EventTrace{
			AppID: "k9", UserID: "alice@example.com",
			Records: []Record{rec(1, Enter, "L", "f"), rec(2, Exit, "L", "f")},
		},
		Util: UtilizationTrace{PID: 42, PeriodMS: 500},
	}
	s := ScrubBundle(b)
	if s.Event.UserID == "alice@example.com" {
		t.Error("user ID not scrubbed")
	}
	if s.Util.PID != 0 {
		t.Error("PID not dropped")
	}
	// Mutating the copy must not touch the original.
	s.Event.Records[0].TimestampMS = 999
	if b.Event.Records[0].TimestampMS != 1 {
		t.Error("scrub is not a deep copy")
	}
	if b.Event.UserID != "alice@example.com" {
		t.Error("original mutated")
	}
}

func TestShortKey(t *testing.T) {
	tests := []struct {
		key  EventKey
		want string
	}{
		{EventKey{"Lcom/fsck/k9/activity/MessageList;", "onResume"}, "MessageList:onResume"},
		{EventKey{"Lcom/fsck/k9/activity/MessageList", "onResume"}, "MessageList:onResume"},
		{EventKey{"Plain", "f"}, "Plain:f"},
	}
	for _, tt := range tests {
		if got := ShortKey(tt.key); got != tt.want {
			t.Errorf("ShortKey(%v) = %q, want %q", tt.key, got, tt.want)
		}
	}
}

// Property: any well-formed generated trace validates and pairs into
// exactly half as many instances as records.
func TestPairProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%20) + 1
		tr := &EventTrace{}
		ts := int64(0)
		classes := []string{"LA", "LB", "LC"}
		var openStack []EventKey
		for i := 0; i < n; i++ {
			key := EventKey{Class: classes[rng.Intn(len(classes))], Callback: "f"}
			ts += int64(rng.Intn(100))
			tr.Records = append(tr.Records, Record{TimestampMS: ts, Dir: Enter, Key: key})
			openStack = append(openStack, key)
			// Randomly close some open events (LIFO to keep nesting valid).
			for len(openStack) > 0 && rng.Intn(2) == 0 {
				k := openStack[len(openStack)-1]
				openStack = openStack[:len(openStack)-1]
				ts += int64(rng.Intn(100))
				tr.Records = append(tr.Records, Record{TimestampMS: ts, Dir: Exit, Key: k})
			}
		}
		for len(openStack) > 0 {
			k := openStack[len(openStack)-1]
			openStack = openStack[:len(openStack)-1]
			ts += int64(rng.Intn(100))
			tr.Records = append(tr.Records, Record{TimestampMS: ts, Dir: Exit, Key: k})
		}
		ins, err := tr.Pair()
		if err != nil {
			return false
		}
		if len(ins) != len(tr.Records)/2 {
			return false
		}
		for _, in := range ins {
			if in.DurationMS() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: text round-trip is lossless for arbitrary timestamps.
func TestTextRoundTripProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw % 30)
		tr := &EventTrace{}
		ts := int64(rng.Intn(1_000_000))
		for i := 0; i < n; i++ {
			ts += int64(rng.Intn(5000))
			dir := Enter
			if i%2 == 1 {
				dir = Exit
			}
			tr.Records = append(tr.Records, rec(ts, dir, "Lcom/app/Class", "onEvent"))
		}
		back, err := ReadText(strings.NewReader(tr.Text()))
		if err != nil {
			return false
		}
		if len(back.Records) != len(tr.Records) {
			return false
		}
		for i := range tr.Records {
			if back.Records[i] != tr.Records[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
