package trace

import (
	"fmt"
	"regexp"
	"strings"
)

// This file implements the privacy scrubbing pass the paper requires
// before traces leave the phone: "traces collected by EnergyDx are
// preprocessed to remove any user identifiers, such as phone numbers or
// IP addresses" (§II-B).

var (
	// reIPv4 matches dotted-quad IP addresses.
	reIPv4 = regexp.MustCompile(`\b(?:\d{1,3}\.){3}\d{1,3}\b`)
	// rePhone matches common phone-number shapes (7+ digits with optional
	// separators and country prefix).
	rePhone = regexp.MustCompile(`\+?\d[\d\-\. ]{6,}\d`)
	// reEmail matches email addresses.
	reEmail = regexp.MustCompile(`[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}`)
)

const redacted = "<redacted>"

// ScrubString removes IP addresses, phone numbers and email addresses
// from a free-form string.
func ScrubString(s string) string {
	if !mayHoldPII(s) {
		return s
	}
	s = reEmail.ReplaceAllString(s, redacted)
	s = reIPv4.ReplaceAllString(s, redacted)
	s = rePhone.ReplaceAllString(s, redacted)
	return s
}

// mayHoldPII reports whether any of ScrubString's patterns can match
// s: each needs an ASCII digit or an "@".
func mayHoldPII(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == '@' || '0' <= c && c <= '9' {
			return true
		}
	}
	return false
}

// ScrubUserID replaces a raw user identifier with a stable pseudonym so
// Step 5 can still count distinct impacted users without learning who
// they are. The pseudonym is a short FNV-based tag.
func ScrubUserID(userID string) string {
	if strings.HasPrefix(userID, "user-") {
		// Already pseudonymous (produced by a previous scrub).
		return userID
	}
	return fmt.Sprintf("user-%08x", fnv32(userID))
}

// fnv32 is the 32-bit FNV-1a hash (inlined to avoid importing hash/fnv
// for four lines).
func fnv32(s string) uint32 {
	const (
		offset = 2166136261
		prime  = 16777619
	)
	h := uint32(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime
	}
	return h
}

// ScrubBundle returns a deep copy of the bundle with user identifiers
// pseudonymized and free-form fields scrubbed of PII. The original
// bundle is not modified, and scrubbing is idempotent: scrubbing an
// already-scrubbed bundle is a no-op, so the server can re-scrub
// uploads (defense in depth) without invalidating the content key a
// client stamped on the scrubbed bundle. A nil bundle scrubs to nil.
func ScrubBundle(b *TraceBundle) *TraceBundle {
	if b == nil {
		return nil
	}
	out := &TraceBundle{
		Key: b.Key,
		Event: EventTrace{
			AppID:   ScrubString(b.Event.AppID),
			UserID:  ScrubUserID(b.Event.UserID),
			Device:  b.Event.Device,
			TraceID: b.Event.TraceID,
			Records: make([]Record, len(b.Event.Records)),
		},
		Util: UtilizationTrace{
			AppID:    ScrubString(b.Util.AppID),
			PID:      0, // PID is device-local and dropped on upload
			PeriodMS: b.Util.PeriodMS,
			Samples:  make([]UtilizationSample, len(b.Util.Samples)),
		},
	}
	// A bundle's records repeat a few event keys many times over, so
	// each distinct string is scrubbed once.
	memo := make(map[string]string)
	scrub := func(s string) string {
		if !mayHoldPII(s) {
			return s
		}
		v, ok := memo[s]
		if !ok {
			v = ScrubString(s)
			memo[s] = v
		}
		return v
	}
	for i, r := range b.Event.Records {
		r.Key.Class = scrub(r.Key.Class)
		r.Key.Callback = scrub(r.Key.Callback)
		out.Event.Records[i] = r
	}
	copy(out.Util.Samples, b.Util.Samples)
	return out
}
