package obs

import (
	"sort"
	"sync"
	"time"
)

// SlowLogEntry is one recorded request in the slow log.
type SlowLogEntry struct {
	API       string        `json:"api"`
	Principal string        `json:"principal,omitempty"`
	Topic     string        `json:"topic,omitempty"`
	Partition int32         `json:"partition"`
	Duration  time.Duration `json:"durationNs"`
	At        time.Time     `json:"at"`
}

// SlowLog keeps a bounded set of the slowest recent requests. Capacity
// bounds memory; once full, a new observation only enters by displacing the
// current fastest entry, and entries older than the window are dropped so
// the log reflects recent behaviour rather than all-time records. Note that
// long-poll fetches legitimately dominate: their duration includes the
// configured wait budget, same as Kafka's request logs.
//
// Observe is on every request's path, so the log tracks its oldest
// timestamp and its fastest entry: it expires only once the oldest entry
// has left the window, and a full log turns away a request no slower than
// its fastest entry in O(1).
type SlowLog struct {
	mu      sync.Mutex
	cap     int
	window  time.Duration
	entries []SlowLogEntry
	oldest  time.Time // earliest At among entries; meaningless when empty
	fastest int       // index of the shortest Duration; meaningless when empty
	now     func() time.Time
}

// NewSlowLog returns a slow log keeping up to capacity entries from the last
// window (defaults: 64 entries, 10 minutes).
func NewSlowLog(capacity int, window time.Duration) *SlowLog {
	if capacity <= 0 {
		capacity = 64
	}
	if window <= 0 {
		window = 10 * time.Minute
	}
	return &SlowLog{cap: capacity, window: window, now: time.Now}
}

// Observe offers one completed request to the log.
func (s *SlowLog) Observe(e SlowLogEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	if e.At.IsZero() {
		e.At = now
	}
	s.expireLocked(now)
	if len(s.entries) < s.cap {
		s.entries = append(s.entries, e)
		if len(s.entries) == 1 || e.At.Before(s.oldest) {
			s.oldest = e.At
		}
		if e.Duration < s.entries[s.fastest].Duration {
			s.fastest = len(s.entries) - 1
		}
		return
	}
	// Full: displace the fastest entry if this one is slower.
	if e.Duration <= s.entries[s.fastest].Duration {
		return
	}
	s.entries[s.fastest] = e
	s.rescanLocked()
}

// expireLocked drops entries older than the window, once the oldest one
// has left it.
func (s *SlowLog) expireLocked(now time.Time) {
	cutoff := now.Add(-s.window)
	if len(s.entries) == 0 || s.oldest.After(cutoff) {
		return
	}
	kept := s.entries[:0]
	for _, e := range s.entries {
		if e.At.After(cutoff) {
			kept = append(kept, e)
		}
	}
	s.entries = kept
	s.rescanLocked()
}

// rescanLocked recomputes the oldest timestamp and the fastest entry.
func (s *SlowLog) rescanLocked() {
	s.fastest = 0
	for i, e := range s.entries {
		if i == 0 || e.At.Before(s.oldest) {
			s.oldest = e.At
		}
		if e.Duration < s.entries[s.fastest].Duration {
			s.fastest = i
		}
	}
}

// Slowest returns the retained entries, slowest first.
func (s *SlowLog) Slowest() []SlowLogEntry {
	s.mu.Lock()
	s.expireLocked(s.now())
	out := append([]SlowLogEntry(nil), s.entries...)
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Duration > out[j].Duration })
	return out
}

// Len reports how many entries are currently retained.
func (s *SlowLog) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked(s.now())
	return len(s.entries)
}
