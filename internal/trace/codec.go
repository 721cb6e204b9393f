package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
)

// This file implements the two serialization formats used by EnergyDx:
//
//   - the Fig-5 text format for event traces, one record per line:
//       28223867 + Lcom/fsck/k9/service/MailService; onDestroy
//     (timestamp, +/- direction, class, callback), and
//   - a JSON-lines envelope for bundles: the on-disk corpus format that
//     tracegen writes, collectd dumps and energydx reads.
//
// # Accepted Fig-5 grammar
//
// A text trace is a sequence of newline-terminated lines. Each line is,
// after trimming surrounding whitespace, one of:
//
//	blank    =                              (ignored)
//	comment  = "#" <anything>               (ignored)
//	record   = timestamp SP dir SP class ";" [SP] callback
//
//	timestamp = decimal int64, milliseconds, >= 0
//	dir       = "+" (callback entrance) | "-" (callback exit)
//	class     = non-empty, no ";", no control characters,
//	            no surrounding whitespace (smali descriptors are
//	            stored without their trailing ";", which the codec
//	            re-inserts as the separator)
//	callback  = non-empty, no control characters, no surrounding
//	            whitespace; may itself contain ";" (only the first
//	            ";" on the line separates class from callback)
//
// Semantic edge cases the codec deliberately accepts (and that the fuzz
// corpus pins down): an empty trace (zero records), duplicate
// timestamps (two records in the same millisecond keep their file
// order), and zero-duration events (enter and exit in the same
// millisecond). Structural violations — unsorted timestamps, an exit
// with no matching enter, unbalanced enter/exit pairs — parse fine and
// are rejected later by Validate, so line-level tooling can still
// inspect a structurally broken trace.

// errUnwritableKey reports an event key that cannot survive a Fig-5
// round trip (WriteText would emit a line ReadText parses differently).
func errUnwritableKey(k EventKey, msg string) error {
	return fmt.Errorf("trace: key %q: %s", k.String(), msg)
}

// checkTextKey verifies that a key serializes losslessly in the Fig-5
// line format.
func checkTextKey(k EventKey) error {
	switch {
	case k.Class == "" || k.Callback == "":
		return errUnwritableKey(k, "empty class or callback")
	case strings.ContainsRune(k.Class, ';'):
		return errUnwritableKey(k, `class contains ";"`)
	case k.Class != strings.TrimSpace(k.Class) || k.Callback != strings.TrimSpace(k.Callback):
		return errUnwritableKey(k, "surrounding whitespace")
	case strings.ContainsAny(k.Class, "\n\r") || strings.ContainsAny(k.Callback, "\n\r"):
		return errUnwritableKey(k, "control character")
	}
	return nil
}

// WriteText serializes the event trace in the paper's Fig-5 line
// format. Records whose keys cannot round-trip through the text format
// (see the grammar above) are rejected before anything is written.
func (t *EventTrace) WriteText(w io.Writer) error {
	for _, r := range t.Records {
		if err := checkTextKey(r.Key); err != nil {
			return err
		}
		if r.TimestampMS < 0 {
			return fmt.Errorf("trace: negative timestamp %d", r.TimestampMS)
		}
	}
	bw := bufio.NewWriter(w)
	for _, r := range t.Records {
		if _, err := bw.WriteString(strconv.FormatInt(r.TimestampMS, 10)); err != nil {
			return fmt.Errorf("write record: %w", err)
		}
		if _, err := bw.WriteString(" " + r.Dir.String() + " " + r.Key.Class + "; " + r.Key.Callback + "\n"); err != nil {
			return fmt.Errorf("write record: %w", err)
		}
	}
	return bw.Flush()
}

// Text renders the event trace to a string in the Fig-5 format.
// Unwritable records render as the empty string; use WriteText when the
// error matters.
func (t *EventTrace) Text() string {
	var sb strings.Builder
	_ = t.WriteText(&sb)
	return sb.String()
}

// ParseTextError reports a malformed line in a Fig-5 text trace.
type ParseTextError struct {
	Line int
	Text string
	Msg  string
}

func (e *ParseTextError) Error() string {
	return fmt.Sprintf("trace: line %d %q: %s", e.Line, e.Text, e.Msg)
}

// ReadText parses an event trace from the Fig-5 line format, rejecting
// the whole trace at the first malformed line. Metadata (AppID, UserID,
// ...) is not part of the text format and is left zero.
func ReadText(r io.Reader) (*EventTrace, error) {
	t := &EventTrace{}
	p := getLineParser()
	defer putLineParser(p)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		rec, err := p.parseLine(line)
		if err != nil {
			return nil, &ParseTextError{Line: lineNo, Text: string(line), Msg: err.Error()}
		}
		t.Records = append(t.Records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scan trace: %w", err)
	}
	return t, nil
}

// maxRetainedLineErrors bounds the per-line errors a lenient read keeps
// (all malformed lines are still counted in Skipped).
const maxRetainedLineErrors = 64

// TextReadStats accounts for a lenient Fig-5 read, line by line.
type TextReadStats struct {
	// Lines is the number of lines scanned (including blanks/comments).
	Lines int
	// Records is the number of well-formed records kept.
	Records int
	// Skipped is the number of malformed lines dropped.
	Skipped int
	// Errors holds the first maxRetainedLineErrors per-line errors.
	Errors []*ParseTextError
}

// ReadTextLenient parses a Fig-5 text trace, skipping malformed lines
// instead of failing, and accounts for every skipped line. It returns
// an error only when reading itself fails (I/O error, line too long).
// This is the ingestion-side entry point: one mangled line in an
// uploaded trace costs that line, not the whole trace.
func ReadTextLenient(r io.Reader) (*EventTrace, *TextReadStats, error) {
	t := &EventTrace{}
	stats := &TextReadStats{}
	p := getLineParser()
	defer putLineParser(p)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		stats.Lines++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		rec, err := p.parseLine(line)
		if err != nil {
			stats.Skipped++
			if len(stats.Errors) < maxRetainedLineErrors {
				stats.Errors = append(stats.Errors, &ParseTextError{Line: stats.Lines, Text: string(line), Msg: err.Error()})
			}
			continue
		}
		stats.Records++
		t.Records = append(t.Records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, stats, fmt.Errorf("scan trace: %w", err)
	}
	return t, stats, nil
}

// lineParser is the pooled per-reader state of the byte-level Fig-5
// line parser: a bounded string-dedup cache so the class/callback of
// every record in a trace (typically a few dozen distinct names over
// thousands of lines) is materialized once instead of per line. The
// parser consumes the scanner's reused byte buffer directly — no
// per-line string conversion, no strings.Split garbage.
type lineParser struct {
	names map[string]string
}

// maxInternedNames bounds the dedup cache; an adversarial trace with
// endless distinct names resets the cache instead of growing it.
const maxInternedNames = 4096

var lineParserPool = sync.Pool{
	New: func() any { return &lineParser{names: make(map[string]string, 64)} },
}

func getLineParser() *lineParser  { return lineParserPool.Get().(*lineParser) }
func putLineParser(p *lineParser) { lineParserPool.Put(p) }

// intern returns b as a string, reusing a previously materialized copy
// when the same bytes were seen before. The map lookup with a
// string-converted key does not allocate (compiler-recognized pattern);
// only first sight of a name pays the copy.
func (p *lineParser) intern(b []byte) string {
	if s, ok := p.names[string(b)]; ok {
		return s
	}
	if len(p.names) >= maxInternedNames {
		p.names = make(map[string]string, 64)
	}
	s := string(b)
	p.names[s] = s
	return s
}

// parseLine parses one trimmed, non-empty, non-comment Fig-5 line:
// "<ts> <+|-> <class>; <callback>". It accepts exactly the language of
// the strings.SplitN-based parser it replaced and produces identical
// records and error text (codec_bytes_test.go pins the equivalence
// against the reference implementation).
func (p *lineParser) parseLine(line []byte) (Record, error) {
	// strings.SplitN(line, " ", 3) equivalent: fields 0 and 1 end at the
	// first two spaces, field 2 is the raw remainder.
	i := bytes.IndexByte(line, ' ')
	if i < 0 {
		return Record{}, fmt.Errorf("want 3 fields, got %d", 1)
	}
	j := bytes.IndexByte(line[i+1:], ' ')
	if j < 0 {
		return Record{}, fmt.Errorf("want 3 fields, got %d", 2)
	}
	tsField := line[:i]
	dirField := line[i+1 : i+1+j]
	rest := line[i+1+j+1:]

	ts, err := parseTimestamp(tsField)
	if err != nil {
		return Record{}, fmt.Errorf("bad timestamp: %v", err)
	}
	if ts < 0 {
		return Record{}, fmt.Errorf("negative timestamp %d", ts)
	}
	var dir Direction
	switch {
	case len(dirField) == 1 && dirField[0] == '+':
		dir = Enter
	case len(dirField) == 1 && dirField[0] == '-':
		dir = Exit
	default:
		return Record{}, fmt.Errorf("bad direction %q", dirField)
	}
	sep := bytes.IndexByte(rest, ';')
	if sep < 0 {
		return Record{}, fmt.Errorf("missing %q separator", ";")
	}
	cls := bytes.TrimSpace(rest[:sep])
	cb := bytes.TrimSpace(rest[sep+1:])
	if len(cls) == 0 || len(cb) == 0 {
		return Record{}, fmt.Errorf("empty class or callback")
	}
	if bytes.IndexByte(cls, '\r') >= 0 || bytes.IndexByte(cb, '\r') >= 0 {
		return Record{}, fmt.Errorf("control character in class or callback")
	}
	return Record{TimestampMS: ts, Dir: dir, Key: EventKey{Class: p.intern(cls), Callback: p.intern(cb)}}, nil
}

// parseTimestamp parses a base-10 int64 from bytes without allocating.
// The fast path covers an optional sign followed by 1–19 ASCII digits
// with no overflow; anything else falls back to strconv.ParseInt on a
// copied string, so rejected inputs carry strconv's exact error text.
func parseTimestamp(b []byte) (int64, error) {
	s := b
	neg := false
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		neg = s[0] == '-'
		s = s[1:]
	}
	// 19 digits can overflow int64 but never uint64, so any wrapped
	// value shows up as negative and falls back.
	if len(s) == 0 || len(s) > 19 {
		return strconv.ParseInt(string(b), 10, 64)
	}
	var v int64
	for _, c := range s {
		if c < '0' || c > '9' {
			return strconv.ParseInt(string(b), 10, 64)
		}
		v = v*10 + int64(c-'0')
	}
	if v < 0 {
		return strconv.ParseInt(string(b), 10, 64)
	}
	if neg {
		return -v, nil
	}
	return v, nil
}

// EncodeBundle writes a trace bundle as a single JSON line, the unit of
// the collection protocol.
func EncodeBundle(w io.Writer, b *TraceBundle) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(b); err != nil {
		return fmt.Errorf("encode bundle: %w", err)
	}
	return nil
}

// DecodeBundle reads one JSON-line trace bundle.
func DecodeBundle(r io.Reader) (*TraceBundle, error) {
	var b TraceBundle
	dec := json.NewDecoder(r)
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("decode bundle: %w", err)
	}
	return &b, nil
}
