package trace

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// ContentKey computes the bundle's canonical content hash: 64-bit
// FNV-1a over the canonical JSON serialization with the Key field
// cleared. Clients stamp it into Bundle.Key before uploading; because
// the hash covers the content, it serves two purposes at once:
//
//   - idempotency: a retry after a lost ack carries the same key, so
//     the server stores the bundle exactly once, and
//   - integrity: any in-flight mutation that changes the decoded
//     content changes the recomputed hash, so the server can detect a
//     corrupted line even when it still parses as valid JSON.
//
// The canonical bytes are exactly what json.Marshal writes for the
// key-cleared bundle, but a hand-written walker produces them and folds
// each byte into the hash as it goes: no reflection, no output buffer,
// and the returned string is the only allocation. Stored logs, dedup across
// restarts and clients in the field all depend on these keys, so
// contentkey_test.go pins the walker to encoding/json byte for byte, by
// a test over every generated corpus and by a fuzz target. Like
// json.Marshal, the walker cannot encode a NaN or infinite utilization
// and panics on one; ingest rejects such bundles before hashing them.
func ContentKey(b *TraceBundle) string {
	w := keyWriter{h: fnvOffset64}
	w.bundle(b)
	const hexDigits = "0123456789abcdef"
	var out [16]byte
	for i := range out {
		out[i] = hexDigits[w.h>>(60-4*i)&0xf]
	}
	return string(out[:])
}

// VerifyContentKey checks a bundle's stamped Key against its content.
// The key is an uploaded bundle's identity for dedup and storage, so a
// bundle without one fails; a stamped key that no longer matches the
// content means the bundle was altered in flight.
func VerifyContentKey(b *TraceBundle) error {
	if b.Key == "" {
		return errors.New("trace: bundle has no content key")
	}
	if got := ContentKey(b); got != b.Key {
		return fmt.Errorf("trace: content key mismatch: stamped %s, content hashes to %s", b.Key, got)
	}
	return nil
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// keyWriter writes a bundle's canonical JSON straight into a running
// FNV-1a 64 hash. num is the one fixed-size chunk numbers are
// formatted into before they are folded in.
type keyWriter struct {
	h   uint64
	num [32]byte
}

// bundle writes the key-cleared bundle with the field order, names and
// nil-slice nulls of its json tags (pinned by
// TestContentKeyWalkerFieldList).
func (w *keyWriter) bundle(b *TraceBundle) {
	e := &b.Event
	w.raw(`{"event":{"appId":`)
	w.str(e.AppID)
	w.raw(`,"userId":`)
	w.str(e.UserID)
	w.raw(`,"device":`)
	w.str(e.Device)
	w.raw(`,"traceId":`)
	w.str(e.TraceID)
	w.raw(`,"records":`)
	if e.Records == nil {
		w.raw("null")
	} else {
		w.raw("[")
		for i := range e.Records {
			r := &e.Records[i]
			if i > 0 {
				w.raw(",")
			}
			w.raw(`{"timestampMillis":`)
			w.int(r.TimestampMS)
			w.raw(`,"dir":`)
			w.int(int64(r.Dir))
			w.raw(`,"key":{"class":`)
			w.str(r.Key.Class)
			w.raw(`,"callback":`)
			w.str(r.Key.Callback)
			w.raw("}}")
		}
		w.raw("]")
	}
	u := &b.Util
	w.raw(`},"util":{"appId":`)
	w.str(u.AppID)
	w.raw(`,"pid":`)
	w.int(int64(u.PID))
	w.raw(`,"periodMillis":`)
	w.int(u.PeriodMS)
	w.raw(`,"samples":`)
	if u.Samples == nil {
		w.raw("null")
	} else {
		w.raw("[")
		for i := range u.Samples {
			s := &u.Samples[i]
			if i > 0 {
				w.raw(",")
			}
			w.raw(`{"timestampMillis":`)
			w.int(s.TimestampMS)
			w.raw(`,"util":[`)
			for j, x := range s.Util {
				if j > 0 {
					w.raw(",")
				}
				w.float(x)
			}
			w.raw("]}")
		}
		w.raw("]")
	}
	w.raw("}}")
}

// fnv1a folds s into the running FNV-1a 64 hash h.
func fnv1a[T string | []byte](h uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// raw folds s into the hash unescaped.
func (w *keyWriter) raw(s string) { w.h = fnv1a(w.h, s) }

func (w *keyWriter) int(v int64) { w.h = fnv1a(w.h, strconv.AppendInt(w.num[:0], v, 10)) }

// float writes f as encoding/json does, and panics with json.Marshal's
// error text on a value it cannot encode.
func (w *keyWriter) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		panic("trace: marshal bundle: json: unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64))
	}
	w.h = fnv1a(w.h, AppendJSONFloat(w.num[:0], f))
}

// htmlSafe reports the ASCII bytes encoding/json writes unescaped
// (with its default HTML escaping): printable, and none of `"\<>&`.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := byte(' '); c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// str writes s as a JSON string with encoding/json's escaping: `"` and
// `\` backslashed, \b \f \n \r \t short forms, other control bytes and
// HTML's <>& as \u00XX, U+2028 and U+2029 as \u202X, and each byte of
// invalid UTF-8 as \ufffd.
func (w *keyWriter) str(s string) {
	const hex = "0123456789abcdef"
	h := (w.h ^ '"') * fnvPrime64
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			i++
			if htmlSafe[c] {
				h = (h ^ uint64(c)) * fnvPrime64
				continue
			}
			var esc [6]byte
			e := esc[:2]
			esc[0] = '\\'
			switch c {
			case '\\', '"':
				esc[1] = c
			case '\b':
				esc[1] = 'b'
			case '\f':
				esc[1] = 'f'
			case '\n':
				esc[1] = 'n'
			case '\r':
				esc[1] = 'r'
			case '\t':
				esc[1] = 't'
			default:
				esc = [6]byte{'\\', 'u', '0', '0', hex[c>>4], hex[c&0xf]}
				e = esc[:]
			}
			h = fnv1a(h, e)
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		var lit string
		switch {
		case r == utf8.RuneError && size == 1:
			lit = `\ufffd`
		case r == '\u2028':
			lit = `\u2028`
		case r == '\u2029':
			lit = `\u2029`
		default:
			lit = s[i : i+size]
		}
		h = fnv1a(h, lit)
		i += size
	}
	w.h = (h ^ '"') * fnvPrime64
}

// AppendJSONString appends s as encoding/json encodes a string with
// its default HTML escaping — the content-key walker's str rules: `"`
// and `\` backslashed, \b \f \n \r \t short forms, other control
// bytes and HTML's <>& as \u00XX, U+2028 and U+2029 as \u202X, and
// each byte of invalid UTF-8 as \ufffd. Runs that need no escaping are
// copied whole.
func AppendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// AppendJSONFloat appends the finite f as encoding/json encodes a
// float64: shortest round-trip digits, in exponent form below 1e-6 and
// from 1e21, with a one-digit negative exponent not zero-padded.
// Positive zero, which most utilization components are, and whole and
// half numbers from 1 to 2^52, which every Step-2 rank is, skip the
// shortest-digits search: their shortest form is the integer part and
// a possible ".5".
func AppendJSONFloat(b []byte, f float64) []byte {
	if math.Float64bits(f) == 0 {
		return append(b, '0')
	}
	if f >= 1 && f < 1<<52 {
		i := int64(f)
		switch float64(i) {
		case f:
			return strconv.AppendInt(b, i, 10)
		case f - 0.5:
			return append(strconv.AppendInt(b, i, 10), ".5"...)
		}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 -> e-7
		b = b[:n-1]
	}
	return b
}
