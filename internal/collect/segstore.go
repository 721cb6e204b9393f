package collect

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/collect/seglog"
	"repro/internal/trace"
	"repro/internal/trace/binenc"
)

// SegStore is the collection tier's Store: accepted bundles land as
// binenc payloads in a segmented append-only log
// (internal/collect/seglog), addressed by their content key. Appends
// are group-committed — many concurrent uploads share each fsync —
// which is what lets ingest throughput scale with connection count
// instead of being capped at one bundle per fsync latency. Quarantined
// uploads ride in the same log as typed records, so one directory and
// one recovery path cover everything.
type SegStore struct {
	log *seglog.Log
}

// NewSegStore opens (creating if needed) a segmented store in dir. The
// log has no settings; the deprecated seglog.Options argument is
// ignored.
func NewSegStore(dir string, _ seglog.Options) (*SegStore, error) {
	l, err := seglog.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("collect: segstore: %w", err)
	}
	return &SegStore{log: l}, nil
}

// Log exposes the underlying segment log (stats and raw scans).
func (s *SegStore) Log() *seglog.Log { return s.log }

// Append durably group-commits one bundle, keyed by its content key so
// a re-upload of the same content is idempotent on disk too. A bundle
// without a key is refused.
func (s *SegStore) Append(b *trace.TraceBundle) error {
	payload, err := binenc.EncodeBundle(nil, b)
	if err != nil {
		return fmt.Errorf("collect: segstore encode: %w", err)
	}
	if err := s.log.AppendBundle(b.Key, payload); err != nil {
		return fmt.Errorf("collect: segstore append: %w", err)
	}
	return nil
}

// Load replays every live bundle, keyed by app ID. Bundles whose
// payloads fail to decode (impossible without disk corruption that
// also beat the CRC) are skipped and counted. A torn tail left by a
// crash mid-commit never gets here: the log truncates it at open. A
// bundle persisted without a content key comes back stamped with
// trace.ContentKey, so every loaded bundle has its identity.
func (s *SegStore) Load() (map[string][]*trace.TraceBundle, int, error) {
	out := make(map[string][]*trace.TraceBundle)
	skipped := 0
	err := s.log.Scan(func(typ byte, key string, body []byte) error {
		if typ != seglog.TypeBundle {
			return nil
		}
		b, err := binenc.DecodeBundle(body)
		if err != nil {
			skipped++
			return nil
		}
		if b.Key == "" {
			b.Key = trace.ContentKey(b)
		}
		out[b.Event.AppID] = append(out[b.Event.AppID], b)
		return nil
	})
	if err != nil {
		return nil, skipped, fmt.Errorf("collect: segstore load: %w", err)
	}
	return out, skipped, nil
}

// AppendQuarantine durably records one rejected upload as a
// quarantine record in the same log.
func (s *SegStore) AppendQuarantine(entry QuarantineEntry) error {
	data, err := json.Marshal(entry)
	if err != nil {
		return fmt.Errorf("collect: segstore quarantine: %w", err)
	}
	if err := s.log.AppendQuarantine(data); err != nil {
		return fmt.Errorf("collect: segstore quarantine: %w", err)
	}
	return nil
}

// LoadQuarantine replays quarantine records in arrival order.
func (s *SegStore) LoadQuarantine() ([]QuarantineEntry, error) {
	type keyed struct {
		key   string
		entry QuarantineEntry
	}
	var rows []keyed
	err := s.log.Scan(func(typ byte, key string, body []byte) error {
		if typ != seglog.TypeQuarantine {
			return nil
		}
		var e QuarantineEntry
		if err := json.Unmarshal(body, &e); err != nil {
			return nil // unreadable quarantine record: nothing to diagnose
		}
		rows = append(rows, keyed{key: key, entry: e})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("collect: segstore quarantine load: %w", err)
	}
	// Scan yields replay order per segment; the log-assigned sequence
	// keys give the global arrival order.
	sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
	out := make([]QuarantineEntry, len(rows))
	for i, r := range rows {
		out[i] = r.entry
	}
	return out, nil
}

// Close waits for the in-flight group commit and closes the log.
func (s *SegStore) Close() error { return s.log.Close() }
