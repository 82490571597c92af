package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	liqmetrics "repro/internal/metrics"
)

// span is one timed call the benchmark made into a layer's public
// function. id is the record's generator sequence (live, serve), its
// offset (rewind) or the request's own counter; parent names the span that
// caused it; arg is a count the call returned (records, bytes).
type span struct {
	name, parent string
	id           int64
	start, dur   int64 // ns since the tracer's epoch
	arg          int64
}

// tracer keeps spans in memory for the traced run and writes them out when
// the run ends. A nil *tracer records nothing, which is the untraced run.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	// chunks hold the spans in fixed-size blocks: a live run records about
	// two million, and one growing slice would briefly need twice that
	// memory each time it doubled.
	chunks [][]span
	n      int
}

const spanChunk = 1 << 16

func (t *tracer) record(name, parent string, id int64, start time.Time, dur time.Duration, arg int64) {
	if t == nil {
		return
	}
	s := span{name: name, parent: parent, id: id, start: int64(start.Sub(t.epoch)), dur: int64(dur), arg: arg}
	t.mu.Lock()
	if t.n%spanChunk == 0 {
		t.chunks = append(t.chunks, make([]span, 0, spanChunk))
	}
	last := len(t.chunks) - 1
	t.chunks[last] = append(t.chunks[last], s)
	t.n++
	t.mu.Unlock()
}

// now is time.Now when tracing and the zero time otherwise, so the
// untraced run does not pay for clock reads it would throw away.
func (t *tracer) now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// since is record for a call that started at start and has just returned.
func (t *tracer) since(name, parent string, id int64, start time.Time, arg int64) {
	if t == nil {
		return
	}
	t.record(name, parent, id, start, time.Since(start), arg)
}

// each calls fn for every span of the named kind.
func (t *tracer) each(name string, fn func(span)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range t.chunks {
		for _, s := range c {
			if s.name == name {
				fn(s)
			}
		}
	}
}

// durations returns the durations of the named spans, in nanoseconds.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	t.each(name, func(s span) { out = append(out, float64(s.dur)) })
	return out
}

// write stores every span as gzipped tab-separated lines:
// name, parent, id, start_ns, dur_ns, arg.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "name\tparent\tid\tstart_ns\tdur_ns\targ")
	t.mu.Lock()
	for _, c := range t.chunks {
		for _, s := range c {
			fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%d\n", s.name, s.parent, s.id, s.start, s.dur, s.arg)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// regSnap is a point-in-time copy of the stack's metrics registry; layer
// metrics are deltas between two snapshots around the measured phase.
type regSnap map[string]liqmetrics.GatheredFamily

func snapshot(reg *liqmetrics.Registry) regSnap {
	out := make(regSnap)
	for _, f := range reg.Gather() {
		out[f.Name] = f
	}
	return out
}

// matches reports whether a point carries every wanted label value.
func matches(f liqmetrics.GatheredFamily, p liqmetrics.Point, want map[string]string) bool {
	for name, v := range want {
		found := false
		for i, ln := range f.LabelNames {
			if ln == name && i < len(p.LabelValues) && p.LabelValues[i] == v {
				found = true
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// counter sums the matching points of a counter or gauge family.
func (s regSnap) counter(name string, want map[string]string) int64 {
	var n int64
	f := s[name]
	for _, p := range f.Points {
		if matches(f, p, want) {
			n += p.Value
		}
	}
	return n
}

// maxGauge is the largest matching point of a gauge family.
func (s regSnap) maxGauge(name string) int64 {
	var m int64
	for _, p := range s[name].Points {
		m = max(m, p.Value)
	}
	return m
}

// hist merges the matching points of a histogram family.
func (s regSnap) hist(name string, want map[string]string) liqmetrics.HistData {
	var d liqmetrics.HistData
	f := s[name]
	for _, p := range f.Points {
		if p.Hist == nil || !matches(f, p, want) {
			continue
		}
		d.Count += p.Hist.Count
		d.Sum += p.Hist.Sum
		for i := range d.Buckets {
			d.Buckets[i] += p.Hist.Buckets[i]
		}
	}
	return d
}

// histDelta is the histogram of the observations made between a and b.
func histDelta(a, b regSnap, name string, want map[string]string) liqmetrics.HistData {
	x, y := a.hist(name, want), b.hist(name, want)
	y.Count -= x.Count
	y.Sum -= x.Sum
	for i := range y.Buckets {
		y.Buckets[i] -= x.Buckets[i]
	}
	return y
}

func counterDelta(a, b regSnap, name string, want map[string]string) int64 {
	return b.counter(name, want) - a.counter(name, want)
}

func histMean(d liqmetrics.HistData) float64 {
	if d.Count == 0 {
		return 0
	}
	return float64(d.Sum) / float64(d.Count)
}

// histQuantile estimates the q-quantile of a registry histogram,
// interpolating linearly inside the power-of-two bucket [2^i, 2^(i+1))
// that holds it, so the estimate moves with the data rather than jumping
// between bucket edges.
func histQuantile(d liqmetrics.HistData, q float64) float64 {
	if d.Count == 0 {
		return 0
	}
	rank := math.Max(1, math.Ceil(q*float64(d.Count)))
	var cum float64
	for i, n := range d.Buckets {
		if n == 0 {
			continue
		}
		if cum+float64(n) >= rank {
			lo := math.Ldexp(1, i)
			return lo + lo*(rank-cum)/float64(n)
		}
		cum += float64(n)
	}
	return float64(d.Max)
}

// procClock is the process's CPU time and GC pause history at one instant.
type procClock struct {
	user, sys time.Duration
	gc        *metrics.Float64Histogram
}

const gcPauses = "/sched/pauses/total/gc:seconds"

func readProc() procClock {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{{Name: gcPauses}}
	metrics.Read(s)
	return procClock{
		user: time.Duration(ru.Utime.Nano()),
		sys:  time.Duration(ru.Stime.Nano()),
		gc:   s[0].Value.Float64Histogram(),
	}
}

// gcPauseQuantile is the q-quantile of the GC pauses between a and b, in
// nanoseconds.
func gcPauseQuantile(a, b procClock, q float64) float64 {
	var total uint64
	counts := make([]uint64, len(b.gc.Counts))
	for i := range counts {
		counts[i] = b.gc.Counts[i] - a.gc.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := math.Max(1, math.Ceil(q*float64(total)))
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			// Interpolate inside the bucket; the last one is unbounded.
			lo, hi := b.gc.Buckets[i], b.gc.Buckets[i+1]
			if math.IsInf(hi, 1) {
				return lo * 1e9
			}
			return (lo + (hi-lo)*(rank-cum)/float64(c)) * 1e9
		}
		cum += float64(c)
	}
	return 0
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Maxrss is in KiB on Linux
}

func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // a file removed mid-walk (retention) just isn't counted
		}
		if info, ierr := d.Info(); ierr == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}

// fsType names the file system holding dir, for the environment record.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
