package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// tailSupport is how many samples must lie beyond a reported percentile:
// a p99 over 200 samples would be a statement about two of them.
const tailSupport = 10

// summary is one latency or duration distribution as reported: the median,
// the requested tail percentile or the highest one the samples support,
// and the sample count.
type summary struct {
	P50   float64
	Tail  float64
	TailQ float64 // the percentile Tail actually is, in [0.5, 1)
	N     int
}

// supportedQuantile returns want when at least tailSupport samples of n
// lie beyond it, and otherwise the highest quantile that has that many,
// never below the median.
func supportedQuantile(n int, want float64) float64 {
	if n <= 0 {
		return 0.5
	}
	q := math.Min(want, 1-float64(tailSupport)/float64(n))
	return math.Max(q, 0.5)
}

// quantile is the nearest-rank q-quantile of sorted samples: the smallest
// sample with at least q·n samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// summarize sorts samples in place and reports the median and the tail at
// want (e.g. 0.99), lowered to what the sample count supports.
func summarize(samples []float64, want float64) summary {
	sort.Float64s(samples)
	q := supportedQuantile(len(samples), want)
	return summary{
		P50:   quantile(samples, 0.5),
		Tail:  quantile(samples, q),
		TailQ: q,
		N:     len(samples),
	}
}

// windows is how many equal slices of the measured phase a latency is
// summarized over: the reported median and tail are the medians of the
// slices' medians and tails, so one stall-heavy slice of a run does not
// move the run's figure.
const windows = 10

// windowed summarizes latency lists in windows. Each list is in due order
// and comes from one open-loop stream; slice i of the phase is the i-th
// tenth of every list. N counts all samples; TailQ is the tail percentile
// every slice supports.
func windowed(lists ...[]float64) summary {
	var p50s, tails []float64
	out := summary{TailQ: 0.99}
	for w := 0; w < windows; w++ {
		var slice []float64
		for _, l := range lists {
			slice = append(slice, l[len(l)*w/windows:len(l)*(w+1)/windows]...)
		}
		sm := summarize(slice, 0.99)
		p50s = append(p50s, sm.P50)
		tails = append(tails, sm.Tail)
		out.N += sm.N
		out.TailQ = math.Min(out.TailQ, sm.TailQ)
	}
	out.P50, out.Tail = median(p50s), median(tails)
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// stream is one open-loop schedule: operation i is due at start+i·every,
// whatever happened to operation i-1. fire runs the operation; it is
// handed its due time so the caller times the operation from when it was
// due, not from when the generator got round to it.
type stream struct {
	every time.Duration
	fire  func(seq int64, due time.Time)
	next  int64
}

// openLoop runs the streams' schedules from start until end on the calling
// goroutine, firing each operation as soon as it is due (late ones
// immediately, in due order), and returns how late each firing was, in
// milliseconds. now and sleep are the clock; tests pass a fake one.
func openLoop(start, end time.Time, streams []*stream, now func() time.Time, sleep func(time.Duration)) []float64 {
	var late []float64
	for {
		var s *stream
		var due time.Time
		for _, c := range streams {
			d := start.Add(time.Duration(c.next) * c.every)
			if s == nil || d.Before(due) {
				s, due = c, d
			}
		}
		if s == nil || !due.Before(end) {
			return late
		}
		t := now()
		if wait := due.Sub(t); wait > 0 {
			sleep(wait)
			t = now()
		}
		late = append(late, ms(t.Sub(due)))
		s.fire(s.next, due)
		s.next++
	}
}

// preciseSleep is the generators' sleep. time.Sleep overshoots by up to a
// millisecond on Linux (the runtime's poller waits in whole milliseconds),
// which would put a millisecond of generator lateness into every
// open-loop latency; nanosleep(2) wakes within the kernel's timer slack.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
