// Package trace defines the on-the-wire and in-memory trace formats that
// flow through EnergyDx: event traces (entry/exit records of instrumented
// callbacks, paper Fig 5), utilization traces (per-component hardware
// utilization of the suspect app sampled from procfs every 500 ms, paper
// §II-C), and power traces derived from them by the power model.
//
// A TraceBundle pairs one event trace with one utilization trace for a
// single user session; the EnergyDx backend consumes corpora of bundles
// collected from many users.
package trace

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Component identifies a hardware component whose utilization is tracked
// by the background procfs sampler. The set mirrors the paper's "CPU,
// display, WiFi, etc." enumeration plus the components exercised by the
// case studies (GPS for OpenGPS, cellular/audio/sensors for the wider
// 40-app corpus).
type Component int

const (
	CPU Component = iota + 1
	Display
	WiFi
	Cellular
	GPS
	Audio
	Sensor
)

// NumComponents is the number of tracked hardware components.
const NumComponents = 7

// Components lists all tracked components in canonical order.
func Components() []Component {
	return []Component{CPU, Display, WiFi, Cellular, GPS, Audio, Sensor}
}

// String returns the human-readable component name.
func (c Component) String() string {
	switch c {
	case CPU:
		return "cpu"
	case Display:
		return "display"
	case WiFi:
		return "wifi"
	case Cellular:
		return "cellular"
	case GPS:
		return "gps"
	case Audio:
		return "audio"
	case Sensor:
		return "sensor"
	default:
		return fmt.Sprintf("component(%d)", int(c))
	}
}

// ParseComponent resolves a canonical component name (as produced by
// Component.String) back to the component.
func ParseComponent(name string) (Component, bool) {
	for _, c := range Components() {
		if c.String() == name {
			return c, true
		}
	}
	return 0, false
}

// index maps a component to its slot in a UtilizationVector.
func (c Component) index() (int, bool) {
	i := int(c) - 1
	if i < 0 || i >= NumComponents {
		return 0, false
	}
	return i, true
}

// UtilizationVector holds one utilization fraction in [0, 1] per component.
type UtilizationVector [NumComponents]float64

// Get returns the utilization of component c (0 for unknown components).
func (u UtilizationVector) Get(c Component) float64 {
	i, ok := c.index()
	if !ok {
		return 0
	}
	return u[i]
}

// Set stores the utilization of component c, clamping to [0, 1].
func (u *UtilizationVector) Set(c Component, v float64) {
	i, ok := c.index()
	if !ok {
		return
	}
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	u[i] = v
}

// Add accumulates v into component c, clamping the result to [0, 1].
func (u *UtilizationVector) Add(c Component, v float64) {
	u.Set(c, u.Get(c)+v)
}

// EventKey identifies an instrumented event: the class it belongs to and
// the callback invoked, e.g. {"Lcom/fsck/k9/activity/MessageList", "onResume"}.
type EventKey struct {
	Class    string `json:"class"`
	Callback string `json:"callback"`
}

// String renders the key in the paper's "Class; callback" notation.
func (k EventKey) String() string { return k.Class + "; " + k.Callback }

// Validate rejects keys that cannot survive the Fig-5 text round trip:
// empty parts, a ";" inside the class, surrounding whitespace, or
// embedded line breaks (see the grammar in codec.go).
func (k EventKey) Validate() error { return checkTextKey(k) }

// Direction marks whether a record is a callback entrance or exit.
type Direction int

const (
	// Enter marks the entrance point of an event callback ("+").
	Enter Direction = iota + 1
	// Exit marks the exit point of an event callback ("-").
	Exit
)

// String returns the Fig-5 sigil for the direction.
func (d Direction) String() string {
	switch d {
	case Enter:
		return "+"
	case Exit:
		return "-"
	default:
		return "?"
	}
}

// Record is one line of an event trace: a timestamped entrance or exit of
// an instrumented callback (paper Fig 5).
type Record struct {
	TimestampMS int64     `json:"timestampMillis"`
	Dir         Direction `json:"dir"`
	Key         EventKey  `json:"key"`
}

// EventTrace is the ordered sequence of entry/exit records logged by one
// instrumented app during one user session.
type EventTrace struct {
	AppID   string   `json:"appId"`
	UserID  string   `json:"userId"`
	Device  string   `json:"device"` // device profile name, for power scaling
	TraceID string   `json:"traceId"`
	Records []Record `json:"records"`
}

// UtilizationSample is one procfs observation of the suspect app's
// per-component utilization.
type UtilizationSample struct {
	TimestampMS int64             `json:"timestampMillis"`
	Util        UtilizationVector `json:"util"`
}

// UtilizationTrace is the 500 ms-period utilization log recorded by the
// EnergyDx background service for the suspect app (identified by PID).
type UtilizationTrace struct {
	AppID    string              `json:"appId"`
	PID      int                 `json:"pid"`
	PeriodMS int64               `json:"periodMillis"`
	Samples  []UtilizationSample `json:"samples"`
}

// PowerSample is one power estimate produced by the power model.
type PowerSample struct {
	TimestampMS int64   `json:"timestampMillis"`
	PowerMW     float64 `json:"powerMilliwatts"`
	// Breakdown attributes the total to components (Fig 11 / Fig 14).
	Breakdown UtilizationVector `json:"breakdownMilliwatts"`
}

// PowerTrace is the per-sample estimated power of the suspect app.
type PowerTrace struct {
	AppID   string        `json:"appId"`
	Device  string        `json:"device"`
	Samples []PowerSample `json:"samples"`
}

// TraceBundle pairs the two traces collected for one user session, the
// unit uploaded to the EnergyDx backend.
type TraceBundle struct {
	// Key is the idempotent upload key: the bundle's content hash
	// (ContentKey), stamped by the uploading client. The server dedupes
	// re-uploads by it and rejects bundles whose content no longer
	// matches (in-flight corruption) or that carry no key. Empty on
	// bundles never uploaded (generated corpora, batch input), which
	// core.bundleKey hashes on demand.
	Key   string           `json:"key,omitempty"`
	Event EventTrace       `json:"event"`
	Util  UtilizationTrace `json:"util"`
}

// Validation errors.
var (
	ErrUnsortedRecords  = errors.New("trace: records not in timestamp order")
	ErrUnbalanced       = errors.New("trace: unbalanced enter/exit records")
	ErrExitBeforeEnter  = errors.New("trace: exit record without matching enter")
	ErrNegativeDuration = errors.New("trace: event exits before it enters")
	ErrBadPeriod        = errors.New("trace: non-positive sampling period")
	ErrBadTimestamp     = errors.New("trace: negative timestamp")
	ErrBadKey           = errors.New("trace: malformed event key")
	ErrBadUtilization   = errors.New("trace: utilization outside [0, 1]")
)

// Validate checks structural invariants of an event trace: records
// sorted by non-negative timestamps, keys that survive the Fig-5 text
// round trip, and enter/exit balanced per event key (nesting allowed).
// Duplicate timestamps and zero-duration events (enter and exit in the
// same millisecond) are valid; both occur in real traces whenever two
// callbacks fire within one millisecond.
func (t *EventTrace) Validate() error {
	open := make(map[EventKey]int)
	var last int64
	for i, r := range t.Records {
		if r.TimestampMS < 0 {
			return fmt.Errorf("%w: record %d at %d", ErrBadTimestamp, i, r.TimestampMS)
		}
		if i > 0 && r.TimestampMS < last {
			return fmt.Errorf("%w: record %d at %d after %d", ErrUnsortedRecords, i, r.TimestampMS, last)
		}
		last = r.TimestampMS
		if err := r.Key.Validate(); err != nil {
			return fmt.Errorf("%w: record %d: %v", ErrBadKey, i, err)
		}
		switch r.Dir {
		case Enter:
			open[r.Key]++
		case Exit:
			if open[r.Key] == 0 {
				return fmt.Errorf("%w: %s at %d", ErrExitBeforeEnter, r.Key, r.TimestampMS)
			}
			open[r.Key]--
		default:
			return fmt.Errorf("trace: record %d has invalid direction %d", i, r.Dir)
		}
	}
	for k, n := range open {
		if n != 0 {
			return fmt.Errorf("%w: %s left open %d time(s)", ErrUnbalanced, k, n)
		}
	}
	return nil
}

// Validate checks structural invariants of a utilization trace: a
// positive sampling period, non-negative sorted timestamps, and every
// component utilization a finite fraction in [0, 1]. Out-of-range or
// non-finite utilization would silently distort the Step-1 power
// estimates, so it is rejected at ingestion instead.
func (t *UtilizationTrace) Validate() error {
	if t.PeriodMS <= 0 {
		return fmt.Errorf("%w: %d ms", ErrBadPeriod, t.PeriodMS)
	}
	var last int64
	for i, s := range t.Samples {
		if s.TimestampMS < 0 {
			return fmt.Errorf("%w: sample %d at %d", ErrBadTimestamp, i, s.TimestampMS)
		}
		if i > 0 && s.TimestampMS < last {
			return fmt.Errorf("%w: sample %d at %d after %d", ErrUnsortedRecords, i, s.TimestampMS, last)
		}
		last = s.TimestampMS
		for c, v := range s.Util {
			if math.IsNaN(v) || v < 0 || v > 1 {
				return fmt.Errorf("%w: sample %d component %s = %v", ErrBadUtilization, i, Component(c+1), v)
			}
		}
	}
	return nil
}

// Instance is a paired enter/exit occurrence of an event: the unit whose
// power consumption Step 1 estimates.
type Instance struct {
	Key     EventKey `json:"key"`
	StartMS int64    `json:"startMillis"`
	EndMS   int64    `json:"endMillis"`
}

// DurationMS returns the event instance's duration in milliseconds.
func (in Instance) DurationMS() int64 { return in.EndMS - in.StartMS }

// Pair matches enter and exit records into instances, allowing nested
// invocations of the same key (matched LIFO, as real re-entrant callbacks
// log). The result is sorted by start time, breaking ties by end time.
func (t *EventTrace) Pair() ([]Instance, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	open := make(map[EventKey][]int64)
	instances := make([]Instance, 0, len(t.Records)/2)
	for _, r := range t.Records {
		switch r.Dir {
		case Enter:
			open[r.Key] = append(open[r.Key], r.TimestampMS)
		case Exit:
			starts := open[r.Key]
			start := starts[len(starts)-1]
			open[r.Key] = starts[:len(starts)-1]
			if r.TimestampMS < start {
				return nil, fmt.Errorf("%w: %s", ErrNegativeDuration, r.Key)
			}
			instances = append(instances, Instance{Key: r.Key, StartMS: start, EndMS: r.TimestampMS})
		}
	}
	sort.Slice(instances, func(a, b int) bool {
		if instances[a].StartMS != instances[b].StartMS {
			return instances[a].StartMS < instances[b].StartMS
		}
		return instances[a].EndMS < instances[b].EndMS
	})
	return instances, nil
}

// Keys returns the distinct event keys appearing in the trace, sorted
// lexicographically for deterministic iteration.
func (t *EventTrace) Keys() []EventKey {
	seen := make(map[EventKey]struct{})
	for _, r := range t.Records {
		seen[r.Key] = struct{}{}
	}
	keys := make([]EventKey, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].Class != keys[b].Class {
			return keys[a].Class < keys[b].Class
		}
		return keys[a].Callback < keys[b].Callback
	})
	return keys
}

// ShortKey renders an event key the way the paper's tables do:
// "MessageList:onResume" (simple class name, colon, callback).
func ShortKey(k EventKey) string {
	cls := k.Class
	if i := strings.LastIndex(cls, "/"); i >= 0 {
		cls = cls[i+1:]
	}
	cls = strings.TrimSuffix(cls, ";")
	return cls + ":" + k.Callback
}
