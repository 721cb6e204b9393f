package collect

import (
	"fmt"
	"hash/fnv"
	"strings"

	"repro/internal/trace"
)

// Store is the durable persistence contract the server writes through:
// every Append/AppendQuarantine must be durable (fsynced) before it
// returns, because the server acknowledges the upload on return.
// SegStore, the segmented binary log with group commit, is the
// implementation the collection tier ships; the interface stays so
// tests and benchmarks can wrap or replace it.
type Store interface {
	// Append durably persists one accepted bundle.
	Append(b *trace.TraceBundle) error
	// Load reads every persisted bundle back, keyed by app ID, plus the
	// count of undecodable records skipped.
	Load() (map[string][]*trace.TraceBundle, int, error)
	// AppendQuarantine durably records one rejected upload.
	AppendQuarantine(entry QuarantineEntry) error
	// LoadQuarantine reads back every quarantined upload in arrival
	// order.
	LoadQuarantine() ([]QuarantineEntry, error)
	// Close releases the store's file handles.
	Close() error
}

// SanitizeAppID turns an app ID into a path-safe file name stem, as
// collectd's per-app corpus dumps use. App IDs come straight from
// uploaded bundles, so "../x" must not name a path outside the dump
// directory. When sanitization has to change anything, a hash of the
// original ID is appended so two distinct app IDs can never collide
// onto one file (e.g. "a/b" and "a_b" would otherwise both map to
// "a_b", silently merging two apps' corpora). IDs that are already
// clean keep their exact name.
func SanitizeAppID(appID string) string {
	mapped := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, appID)
	if mapped == appID {
		return mapped
	}
	h := fnv.New64a()
	h.Write([]byte(appID))
	return fmt.Sprintf("%s-%016x", mapped, h.Sum64())
}
