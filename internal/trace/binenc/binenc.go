// Package binenc implements the binary columnar trace-bundle codec:
// the collection tier's only upload framing (after the protocol hello
// "EDX1 bin"). The same frames serve as the on-disk record format of
// the segmented bundle log (internal/collect/seglog), so one codec
// covers wire and disk.
//
// # Frame layout
//
// A frame is a length-prefixed, checksummed payload:
//
//	u32le  payload length
//	u32le  CRC-32C (Castagnoli) of the payload
//	bytes  payload
//
// The checksum makes torn or bit-flipped frames detectable at the
// framing layer, before any field is interpreted — the disk replay path
// uses it for torn-tail truncation and the wire path for quarantine.
//
// # Payload layout (version 1)
//
// Strings are uvarint length + bytes. Slices that must round-trip the
// nil/empty distinction (JSON marshals nil as null and empty as [])
// encode their length as uvarint(len+1) with 0 meaning nil. Signed
// integers use zigzag varints; timestamps are delta-encoded against the
// previous value in their column, so the sorted millisecond columns of
// real traces compress to one or two bytes per record.
//
//	u8       payload version (= 1)
//	str      bundle content key        } decodable by FrameHeader alone,
//	str      event appID               } so a router can pick a shard
//	str      event userID                without decoding the columns
//	str      event device
//	str      event traceID
//	uvarint  #dictionary keys, then per key: str class, str callback
//	         (keys in first-appearance order — the dense IDs a
//	         trace.Interner assigns while encoding)
//	len+1    #event records, then three columns:
//	           zigzag-delta timestampMS per record
//	           packed direction bits, 1 bit per record (0=enter, 1=exit)
//	           uvarint dictionary ID per record
//	str      util appID
//	zigzag   util PID
//	zigzag   util periodMS
//	len+1    #utilization samples, then two columns:
//	           zigzag-delta timestampMS per sample
//	           NumComponents × f64le utilization per sample
package binenc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"repro/internal/trace"
)

// Version is the payload format version this package encodes.
const Version = 1

// MaxFrameBytes is the default bound a frame reader enforces on the
// declared payload length, mirroring the collect tier's default
// line-size limit so a corrupted length prefix cannot ask for gigabytes.
const MaxFrameBytes = 16 << 20

// FrameOverhead is the fixed frame prefix before the payload: u32le
// length + u32le CRC. A frame occupies FrameOverhead+len(payload) bytes.
const FrameOverhead = 8

// frameHeaderLen is the fixed prefix before the payload: length + CRC.
const frameHeaderLen = FrameOverhead

// castagnoli is the CRC-32C table shared by all frame writers/readers.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Codec errors.
var (
	ErrFrameTooLarge = errors.New("binenc: frame exceeds size limit")
	ErrCRCMismatch   = errors.New("binenc: frame CRC mismatch")
	ErrTruncated     = errors.New("binenc: truncated payload")
	ErrBadVersion    = errors.New("binenc: unsupported payload version")
)

// AppendFrame appends the frame encoding of payload (header + payload)
// to dst and returns the extended slice.
func AppendFrame(dst, payload []byte) []byte {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// WriteFrame writes one frame (header + payload) to w.
func WriteFrame(w io.Writer, payload []byte) error {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("binenc: write frame header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("binenc: write frame payload: %w", err)
	}
	return nil
}

// ReadFrame reads one frame from r and returns its verified payload,
// read into buf's storage when its capacity holds the payload (a
// reader of many frames passes the previous payload back to reuse it)
// and into a new slice otherwise; pass nil for a payload of its own.
// max bounds the declared payload length (<= 0 means MaxFrameBytes).
// io.EOF is returned untouched at a clean frame boundary; a header or
// payload cut short mid-frame surfaces as io.ErrUnexpectedEOF, and a
// checksum failure as ErrCRCMismatch — the two torn-tail signals the
// segment replay distinguishes from a clean end of log.
func ReadFrame(r io.Reader, max int, buf []byte) ([]byte, error) {
	if max <= 0 {
		max = MaxFrameBytes
	}
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return nil, err // clean EOF stays io.EOF
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if int64(n) > int64(max) {
		return nil, fmt.Errorf("%w: %d bytes declared, limit %d", ErrFrameTooLarge, n, max)
	}
	payload := slices.Grow(buf[:0], int(n))[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, fmt.Errorf("%w: stored %08x, payload hashes to %08x", ErrCRCMismatch, want, got)
	}
	return payload, nil
}

// appendUvarint / appendZigzag are the integer encoders.

func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

func appendZigzag(dst []byte, v int64) []byte {
	return binary.AppendVarint(dst, v)
}

func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendLenNil encodes a slice length preserving the nil/empty
// distinction: 0 means nil, n+1 means a (possibly empty) slice of n.
func appendLenNil(dst []byte, n int, isNil bool) []byte {
	if isNil {
		return appendUvarint(dst, 0)
	}
	return appendUvarint(dst, uint64(n)+1)
}

// EncodeBundle appends the version-1 binary payload of b to dst and
// returns the extended slice. Bundles whose records carry an invalid
// direction are rejected (the direction column is one bit wide); every
// other structurally odd bundle — unsorted or negative timestamps,
// unbalanced pairs, out-of-range utilization — encodes faithfully, so
// the codec stays a pure serialization layer and validation remains the
// ingest tier's job, exactly as with the JSON codec.
func EncodeBundle(dst []byte, b *trace.TraceBundle) ([]byte, error) {
	dst = append(dst, Version)
	dst = appendString(dst, b.Key)
	dst = appendString(dst, b.Event.AppID)
	dst = appendString(dst, b.Event.UserID)
	dst = appendString(dst, b.Event.Device)
	dst = appendString(dst, b.Event.TraceID)

	// Dictionary of distinct event keys in first-appearance order: the
	// dense IDs a fresh interner assigns while walking the records.
	in := trace.NewInterner()
	for i := range b.Event.Records {
		r := &b.Event.Records[i]
		if r.Dir != trace.Enter && r.Dir != trace.Exit {
			return nil, fmt.Errorf("binenc: record %d has invalid direction %d", i, r.Dir)
		}
		in.ID(r.Key)
	}
	dst = appendUvarint(dst, uint64(in.Len()))
	for id := 0; id < in.Len(); id++ {
		k := in.Key(uint32(id))
		dst = appendString(dst, k.Class)
		dst = appendString(dst, k.Callback)
	}

	recs := b.Event.Records
	dst = appendLenNil(dst, len(recs), recs == nil)
	var prev int64
	for i := range recs {
		dst = appendZigzag(dst, recs[i].TimestampMS-prev)
		prev = recs[i].TimestampMS
	}
	for i := 0; i < len(recs); i += 8 {
		var bits byte
		for j := 0; j < 8 && i+j < len(recs); j++ {
			if recs[i+j].Dir == trace.Exit {
				bits |= 1 << j
			}
		}
		dst = append(dst, bits)
	}
	for i := range recs {
		dst = appendUvarint(dst, uint64(in.ID(recs[i].Key)))
	}

	dst = appendString(dst, b.Util.AppID)
	dst = appendZigzag(dst, int64(b.Util.PID))
	dst = appendZigzag(dst, b.Util.PeriodMS)
	samples := b.Util.Samples
	dst = appendLenNil(dst, len(samples), samples == nil)
	prev = 0
	for i := range samples {
		dst = appendZigzag(dst, samples[i].TimestampMS-prev)
		prev = samples[i].TimestampMS
	}
	for i := range samples {
		for c := 0; c < trace.NumComponents; c++ {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(samples[i].Util[c]))
		}
	}
	return dst, nil
}

// decoder walks a payload with bounds-checked reads.
type decoder struct {
	buf []byte
	off int
}

func (d *decoder) u8() (byte, error) {
	if d.off >= len(d.buf) {
		return 0, ErrTruncated
	}
	b := d.buf[d.off]
	d.off++
	return b, nil
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, ErrTruncated
	}
	d.off += n
	return v, nil
}

func (d *decoder) zigzag() (int64, error) {
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		return 0, ErrTruncated
	}
	d.off += n
	return v, nil
}

func (d *decoder) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(d.buf)-d.off) {
		return "", ErrTruncated
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

// lenNil decodes an appendLenNil length: (n, isNil). A declared length
// is sanity-bounded by the remaining payload bytes assuming at least
// min bytes per element, so a corrupt count cannot drive a huge
// allocation before the payload runs out.
func (d *decoder) lenNil(min int) (int, bool, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, false, err
	}
	if v == 0 {
		return 0, true, nil
	}
	n := v - 1
	if min < 1 {
		min = 1
	}
	if n > uint64((len(d.buf)-d.off)/min)+1 {
		return 0, false, fmt.Errorf("%w: %d elements declared with %d bytes left", ErrTruncated, n, len(d.buf)-d.off)
	}
	return int(n), false, nil
}

// DecodeBundle decodes a version-1 binary payload. The decoded bundle
// is deeply equal — including the nil/empty slice distinction, so JSON
// re-serialization is byte-identical — to the bundle the payload was
// encoded from.
func DecodeBundle(payload []byte) (*trace.TraceBundle, error) {
	d := &decoder{buf: payload}
	ver, err := d.u8()
	if err != nil {
		return nil, err
	}
	if ver != Version {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, ver)
	}
	b := &trace.TraceBundle{}
	if b.Key, err = d.str(); err != nil {
		return nil, fmt.Errorf("binenc: key: %w", err)
	}
	if b.Event.AppID, err = d.str(); err != nil {
		return nil, fmt.Errorf("binenc: appID: %w", err)
	}
	if b.Event.UserID, err = d.str(); err != nil {
		return nil, fmt.Errorf("binenc: userID: %w", err)
	}
	if b.Event.Device, err = d.str(); err != nil {
		return nil, fmt.Errorf("binenc: device: %w", err)
	}
	if b.Event.TraceID, err = d.str(); err != nil {
		return nil, fmt.Errorf("binenc: traceID: %w", err)
	}

	nDict, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("binenc: dictionary: %w", err)
	}
	if nDict > uint64(len(d.buf)-d.off)/2+1 {
		return nil, fmt.Errorf("%w: %d dictionary keys declared", ErrTruncated, nDict)
	}
	dict := make([]trace.EventKey, nDict)
	for i := range dict {
		if dict[i].Class, err = d.str(); err != nil {
			return nil, fmt.Errorf("binenc: dictionary key %d: %w", i, err)
		}
		if dict[i].Callback, err = d.str(); err != nil {
			return nil, fmt.Errorf("binenc: dictionary key %d: %w", i, err)
		}
	}

	nRecs, recsNil, err := d.lenNil(1)
	if err != nil {
		return nil, fmt.Errorf("binenc: records: %w", err)
	}
	if !recsNil {
		b.Event.Records = make([]trace.Record, nRecs)
		var prev int64
		for i := 0; i < nRecs; i++ {
			dt, err := d.zigzag()
			if err != nil {
				return nil, fmt.Errorf("binenc: record %d timestamp: %w", i, err)
			}
			prev += dt
			b.Event.Records[i].TimestampMS = prev
		}
		for i := 0; i < nRecs; i += 8 {
			bits, err := d.u8()
			if err != nil {
				return nil, fmt.Errorf("binenc: direction bits: %w", err)
			}
			for j := 0; j < 8 && i+j < nRecs; j++ {
				if bits&(1<<j) != 0 {
					b.Event.Records[i+j].Dir = trace.Exit
				} else {
					b.Event.Records[i+j].Dir = trace.Enter
				}
			}
		}
		for i := 0; i < nRecs; i++ {
			id, err := d.uvarint()
			if err != nil {
				return nil, fmt.Errorf("binenc: record %d key ID: %w", i, err)
			}
			if id >= nDict {
				return nil, fmt.Errorf("binenc: record %d references dictionary ID %d of %d", i, id, nDict)
			}
			b.Event.Records[i].Key = dict[id]
		}
	}

	if b.Util.AppID, err = d.str(); err != nil {
		return nil, fmt.Errorf("binenc: util appID: %w", err)
	}
	pid, err := d.zigzag()
	if err != nil {
		return nil, fmt.Errorf("binenc: util PID: %w", err)
	}
	b.Util.PID = int(pid)
	if b.Util.PeriodMS, err = d.zigzag(); err != nil {
		return nil, fmt.Errorf("binenc: util period: %w", err)
	}
	nSamples, samplesNil, err := d.lenNil(1 + 8*trace.NumComponents)
	if err != nil {
		return nil, fmt.Errorf("binenc: samples: %w", err)
	}
	if !samplesNil {
		b.Util.Samples = make([]trace.UtilizationSample, nSamples)
		var prev int64
		for i := 0; i < nSamples; i++ {
			dt, err := d.zigzag()
			if err != nil {
				return nil, fmt.Errorf("binenc: sample %d timestamp: %w", i, err)
			}
			prev += dt
			b.Util.Samples[i].TimestampMS = prev
		}
		for i := 0; i < nSamples; i++ {
			if len(d.buf)-d.off < 8*trace.NumComponents {
				return nil, fmt.Errorf("binenc: sample %d utilization: %w", i, ErrTruncated)
			}
			for c := 0; c < trace.NumComponents; c++ {
				bits := binary.LittleEndian.Uint64(d.buf[d.off:])
				d.off += 8
				b.Util.Samples[i].Util[c] = math.Float64frombits(bits)
			}
		}
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("binenc: %d trailing bytes after payload", len(d.buf)-d.off)
	}
	return b, nil
}

// Header is the routable prefix of a payload: enough to deduplicate and
// shard a frame without decoding its columns.
type Header struct {
	// Key is the bundle's stamped content key ("" for legacy bundles).
	Key string
	// AppID is the event trace's app ID — the shard-routing key.
	AppID string
}

// FrameHeader decodes only the leading fields of a version-1 payload.
// The router uses it to pick a shard per frame in O(header) work.
func FrameHeader(payload []byte) (Header, error) {
	d := &decoder{buf: payload}
	ver, err := d.u8()
	if err != nil {
		return Header{}, err
	}
	if ver != Version {
		return Header{}, fmt.Errorf("%w: %d", ErrBadVersion, ver)
	}
	var h Header
	if h.Key, err = d.str(); err != nil {
		return Header{}, fmt.Errorf("binenc: key: %w", err)
	}
	if h.AppID, err = d.str(); err != nil {
		return Header{}, fmt.Errorf("binenc: appID: %w", err)
	}
	return h, nil
}
