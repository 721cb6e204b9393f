package trace_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/revision"
	"repro/internal/trace"
	"repro/internal/workload"
)

// referenceContentKey is the content key as encoding/json defines it:
// 64-bit FNV-1a over json.Marshal of the bundle with Key cleared. The
// walker behind trace.ContentKey must reproduce it bit for bit.
func referenceContentKey(b *trace.TraceBundle) string {
	c := *b
	c.Key = ""
	data, err := json.Marshal(&c)
	if err != nil {
		panic(fmt.Sprintf("trace: marshal bundle: %v", err))
	}
	h := uint64(14695981039346656037)
	for _, by := range data {
		h ^= uint64(by)
		h *= 1099511628211
	}
	return fmt.Sprintf("%016x", h)
}

func checkKey(t *testing.T, what string, b *trace.TraceBundle) {
	t.Helper()
	if got, want := trace.ContentKey(b), referenceContentKey(b); got != want {
		c := *b
		c.Key = ""
		data, _ := json.Marshal(&c)
		if len(data) > 512 {
			data = append(data[:512], "..."...)
		}
		t.Fatalf("%s: ContentKey = %s, json.Marshal reference = %s; canonical bytes %s", what, got, want, data)
	}
}

// handBundle is a small well-formed bundle the hand cases mutate.
func handBundle() *trace.TraceBundle {
	return &trace.TraceBundle{
		Event: trace.EventTrace{
			AppID: "k9mail", UserID: "user-1", Device: "nexus6", TraceID: "t1",
			Records: []trace.Record{
				{TimestampMS: 1, Dir: trace.Enter, Key: trace.EventKey{Class: "Lcom/fsck/k9/activity/MessageList", Callback: "onResume"}},
				{TimestampMS: 9, Dir: trace.Exit, Key: trace.EventKey{Class: "Lcom/fsck/k9/activity/MessageList", Callback: "onResume"}},
			},
		},
		Util: trace.UtilizationTrace{AppID: "k9mail", PID: 7, PeriodMS: 500,
			Samples: []trace.UtilizationSample{
				{TimestampMS: 0, Util: trace.UtilizationVector{0.5, 0, 0.25, 0, 0, 1, 0}},
				{TimestampMS: 500, Util: trace.UtilizationVector{0.125}},
			}},
	}
}

// TestContentKeyMatchesMarshal pins ContentKey to encoding/json: every
// catalog app's generated corpus, revision chain corpora with and
// without rewires, the checked-in fuzz seeds, and hand cases
// for each escaping, float and nil-slice rule give the key the
// reference computes from json.Marshal's bytes.
func TestContentKeyMatchesMarshal(t *testing.T) {
	t.Run("hand", func(t *testing.T) {
		strs := []string{
			"", "<init>", "a&b", "x>y", `"quoted"`, `back\slash`, "line\u2028sep", "para\u2029sep",
			"bad\xffutf8", "\xc3", "trunc\xe2\x80", "\xed\xa0\x80", "Lcom/ä/Ünïcødé", "日本語クラス", "emoji\U0001F600",
			"\x7f", "tab\tnl\nret\rbs\bff\f",
		}
		for c := byte(0); c < 0x20; c++ {
			strs = append(strs, "ctl"+string(rune(c))+"end")
		}
		floats := []float64{
			0, math.Copysign(0, -1), 1e-7, -1e-7, 9.99e-7, 1e-6, 5e-324, math.SmallestNonzeroFloat64,
			1e21, -1e21, 1e20, 0.1 + 0.2, 0.5, 1, 1.5, 1<<52 - 0.5, 1 << 52, 1<<53 + 2, math.MaxFloat64, 1.234e-300,
		}
		cases := map[string]*trace.TraceBundle{}
		b := handBundle()
		cases["base"] = b
		withKey := handBundle()
		withKey.Key = "ffffffffffffffff"
		cases["present key"] = withKey
		cases["zero bundle"] = &trace.TraceBundle{}
		b = handBundle()
		b.Event.Records, b.Util.Samples = []trace.Record{}, []trace.UtilizationSample{}
		cases["empty slices"] = b
		b = handBundle()
		b.Event.Records = nil
		cases["nil records"] = b
		b = handBundle()
		b.Util.Samples = nil
		cases["nil samples"] = b
		b = handBundle()
		b.Event.Records[0].TimestampMS, b.Event.Records[1].TimestampMS = -1, math.MinInt64
		b.Util.PID, b.Util.PeriodMS = -42, math.MaxInt64
		b.Util.Samples[0].TimestampMS = -500
		b.Event.Records[0].Dir = -3
		cases["negative ints"] = b
		for i, s := range strs {
			b := handBundle()
			b.Event.AppID, b.Event.UserID, b.Event.Device, b.Event.TraceID = s, s+"u", "d"+s, s+s
			b.Event.Records[0].Key = trace.EventKey{Class: s, Callback: s}
			b.Util.AppID = s
			cases[fmt.Sprintf("string %d %q", i, s)] = b
		}
		for i, f := range floats {
			b := handBundle()
			for c := range b.Util.Samples[0].Util {
				b.Util.Samples[0].Util[c] = f
			}
			b.Util.Samples[1].Util[3] = -f
			cases[fmt.Sprintf("float %d %v", i, f)] = b
		}
		for name, b := range cases {
			checkKey(t, name, b)
		}
		if trace.ContentKey(withKey) != trace.ContentKey(handBundle()) {
			t.Error("a present Key changes the content key")
		}
	})

	t.Run("catalog", func(t *testing.T) {
		catalog, err := apps.Catalog()
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, app := range catalog {
			cfg := workload.DefaultConfig(app, 11)
			cfg.Users = 6
			cfg.BrowsePhases = 4
			cfg.Scrub = app.ID%2 == 0 // raw and scrubbed identifiers alike
			corpus, err := workload.Generate(cfg)
			if err != nil {
				t.Fatalf("%s: %v", app.AppID, err)
			}
			for i, b := range corpus.Bundles {
				checkKey(t, fmt.Sprintf("%s bundle %d", app.AppID, i), b)
				n++
			}
		}
		t.Logf("%d catalog bundles", n)
	})

	t.Run("revision chains", func(t *testing.T) {
		app, err := apps.K9Mail()
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, kind := range []revision.Kind{revision.KindHold, revision.KindLoop, revision.KindHot} {
			for _, rewires := range []bool{false, true} {
				ccfg := revision.ChainConfig{App: app, Versions: 3, Seed: 7, RegressionAt: 2, Kind: kind, Rewires: rewires}
				chain, err := revision.GenerateChain(ccfg)
				if err != nil {
					t.Fatal(err)
				}
				corpora, err := revision.ChainCorpora(chain, ccfg, revision.CorpusConfig{Users: 6, Seed: 3})
				if err != nil {
					t.Fatal(err)
				}
				for v, bundles := range corpora {
					for i, b := range bundles {
						checkKey(t, fmt.Sprintf("%s rewires=%t v%d bundle %d", kind, rewires, v, i), b)
						n++
					}
				}
			}
		}
		t.Logf("%d chain bundles", n)
	})

	t.Run("fuzz seeds", func(t *testing.T) {
		files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "*", "*"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no fuzz seeds (%v)", err)
		}
		n := 0
		for _, f := range files {
			if b := seedBundle(t, f); b != nil {
				checkKey(t, f, b)
				n++
			}
		}
		t.Logf("%d of %d seeds are bundles", n, len(files))
	})
}

// seedBundle turns the []byte argument of a checked-in fuzz corpus
// file into a bundle: decoded as one for FuzzDecodeBundle seeds, and
// as the event trace of one for FuzzReadText seeds. It returns nil for
// a seed that is neither.
func seedBundle(t *testing.T, path string) *trace.TraceBundle {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, lit, _ := strings.Cut(string(data), "\n")
	lit = strings.TrimSpace(lit)
	if !strings.HasPrefix(lit, "[]byte(") || !strings.HasSuffix(lit, ")") {
		t.Fatalf("%s: unexpected corpus entry %q", path, lit)
	}
	raw, err := strconv.Unquote(lit[len("[]byte(") : len(lit)-1])
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	switch filepath.Base(filepath.Dir(path)) {
	case "FuzzDecodeBundle":
		if b, err := trace.DecodeBundle(strings.NewReader(raw)); err == nil {
			return b
		}
	case "FuzzReadText":
		if tr, _, err := trace.ReadTextLenient(strings.NewReader(raw)); err == nil {
			return &trace.TraceBundle{Event: *tr}
		}
	}
	return nil
}

// TestContentKeyWalkerFieldList pins the walker's hand-written field
// order to the json tags and kinds of the bundle types, none of which
// may marshal itself: a field added, renamed, reordered, retagged or
// given a marshaler there changes json.Marshal's bytes, so the walker
// (and every stored key) would have to follow deliberately.
func TestContentKeyWalkerFieldList(t *testing.T) {
	marshalers := []reflect.Type{
		reflect.TypeOf((*json.Marshaler)(nil)).Elem(),
		reflect.TypeOf((*interface{ MarshalText() ([]byte, error) })(nil)).Elem(),
	}
	var fields []string
	var walk func(prefix string, typ reflect.Type)
	walk = func(prefix string, typ reflect.Type) {
		for _, m := range marshalers {
			if typ.Implements(m) || reflect.PointerTo(typ).Implements(m) {
				t.Errorf("%s implements %s; the walker encodes it by its kind", typ, m)
			}
		}
		for typ.Kind() == reflect.Slice || typ.Kind() == reflect.Array {
			fields = append(fields, prefix+" "+typ.Kind().String())
			typ = typ.Elem()
		}
		if typ.Kind() != reflect.Struct {
			fields = append(fields, prefix+" "+typ.Kind().String())
			return
		}
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			walk(prefix+"."+f.Tag.Get("json"), f.Type)
		}
	}
	walk("", reflect.TypeOf(trace.TraceBundle{}))
	want := []string{
		".key,omitempty string",
		".event.appId string", ".event.userId string", ".event.device string", ".event.traceId string",
		".event.records slice",
		".event.records.timestampMillis int64", ".event.records.dir int",
		".event.records.key.class string", ".event.records.key.callback string",
		".util.appId string", ".util.pid int", ".util.periodMillis int64",
		".util.samples slice",
		".util.samples.timestampMillis int64", ".util.samples.util array", ".util.samples.util float64",
	}
	if !slices.Equal(fields, want) {
		t.Errorf("bundle JSON fields\n  %q\nwalker writes\n  %q", fields, want)
	}
}

// TestContentKeyPanicsOnNonFinite keeps json.Marshal's failure: a NaN
// or infinite utilization cannot be encoded, and the key panics with
// the error text json.Marshal gives.
func TestContentKeyPanicsOnNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		b := handBundle()
		b.Util.Samples[1].Util[6] = f
		c := *b
		_, err := json.Marshal(&c)
		want := fmt.Sprintf("trace: marshal bundle: %v", err)
		func() {
			defer func() {
				if got := recover(); got != want {
					t.Errorf("ContentKey with %v panicked with %v, want %q", f, got, want)
				}
			}()
			trace.ContentKey(b)
		}()
	}
}

// FuzzContentKeyMatchesMarshal compares ContentKey with the
// json.Marshal reference on bundles built from fuzzed strings, ints
// and finite float bits.
func FuzzContentKeyMatchesMarshal(f *testing.F) {
	f.Add("k9mail", "user-1", "Lcom/fsck/k9/activity/MessageList", "onResume", int64(28223867), int64(500), 7, uint64(0x3fe0000000000000), uint8(3))
	f.Add("<&>", "\u2028\u2029", "\xff\xfe", "\x00\x1f\"\\", int64(-1), int64(math.MinInt64), -1, uint64(0x8000000000000000), uint8(0))
	f.Add("", "", "", "", int64(0), int64(0), 0, uint64(1), uint8(255))
	f.Fuzz(func(t *testing.T, app, user, class, callback string, ts, period int64, pid int, bits uint64, shape uint8) {
		b := &trace.TraceBundle{
			Event: trace.EventTrace{AppID: app, UserID: user, Device: callback + class, TraceID: user + app},
			Util:  trace.UtilizationTrace{AppID: class, PID: pid, PeriodMS: period},
		}
		if shape&1 == 0 {
			b.Event.Records = []trace.Record{}
		}
		if shape&2 == 0 {
			b.Util.Samples = []trace.UtilizationSample{}
		}
		if shape&4 != 0 {
			b.Key = app
		}
		for i := 0; i < int(shape>>3&7); i++ {
			b.Event.Records = append(b.Event.Records, trace.Record{
				TimestampMS: ts + int64(i), Dir: trace.Direction(pid + i),
				Key: trace.EventKey{Class: class[:len(class)*i/7], Callback: callback},
			})
			var u trace.UtilizationVector
			for c := range u {
				x := math.Float64frombits(bits>>(c*9) | bits<<(64-c*9))
				if math.IsNaN(x) || math.IsInf(x, 0) {
					x = math.Float64frombits(bits &^ (1 << 62)) // exponent below all-ones
				}
				if c == i {
					x = 0
				}
				u[c] = x
			}
			b.Util.Samples = append(b.Util.Samples, trace.UtilizationSample{TimestampMS: period - int64(i), Util: u})
		}
		checkKey(t, "fuzzed bundle", b)
	})
}

// BenchmarkContentKey hashes one generated K9Mail bundle.
func BenchmarkContentKey(b *testing.B) {
	app, err := apps.K9Mail()
	if err != nil {
		b.Fatal(err)
	}
	cfg := workload.DefaultConfig(app, 1)
	cfg.Users = 2
	corpus, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	bundle := corpus.Bundles[0]
	var canon bytes.Buffer
	if err := json.NewEncoder(&canon).Encode(bundle); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(canon.Len() - 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trace.ContentKey(bundle)
	}
}
