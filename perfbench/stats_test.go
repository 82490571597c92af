package main

import (
	"testing"
	"time"

	liqmetrics "repro/internal/metrics"
)

func TestTailHasTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{11, 20, 50, 199, 200, 999, 1000, 1001, 5000} {
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = float64(n - i) // reversed: summarize must sort
		}
		sm := summarize(samples, 0.99)
		if sm.N != n {
			t.Fatalf("n=%d: reported %d samples", n, sm.N)
		}
		beyond := 0
		for _, v := range samples {
			if v > sm.Tail {
				beyond++
			}
		}
		if beyond < tailSupport && sm.TailQ > 0.5 {
			t.Errorf("n=%d: p%g=%v has %d samples beyond it", n, sm.TailQ*100, sm.Tail, beyond)
		}
		if sm.TailQ > 0.99 {
			t.Errorf("n=%d: tail quantile %v above the requested 0.99", n, sm.TailQ)
		}
		if sm.P50 != float64((n+1)/2) {
			t.Errorf("n=%d: median %v", n, sm.P50)
		}
	}
}

func TestTailIsHighestSupported(t *testing.T) {
	cases := []struct {
		n     int
		wantQ float64
	}{
		{5000, 0.99}, {1000, 0.99}, {500, 0.98}, {200, 0.95}, {100, 0.9}, {15, 0.5},
	}
	for _, c := range cases {
		if q := supportedQuantile(c.n, 0.99); q != c.wantQ {
			t.Errorf("n=%d: quantile %v, want %v", c.n, q, c.wantQ)
		}
	}
}

// fakeClock advances only when the code under test sleeps or an operation
// "takes" time.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) sleep(d time.Duration)   { c.t = c.t.Add(d) }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestOpenLoopTimesFromDue(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{t: start}
	var dues []time.Time
	var lat []time.Duration
	s := &stream{every: 10 * time.Millisecond, fire: func(i int64, due time.Time) {
		dues = append(dues, due)
		if i == 0 {
			clk.advance(35 * time.Millisecond) // a stall in the system under test
		} else {
			clk.advance(time.Millisecond)
		}
		lat = append(lat, clk.now().Sub(due))
	}}
	late := openLoop(start, start.Add(100*time.Millisecond), []*stream{s}, clk.now, clk.sleep)
	if len(dues) != 10 {
		t.Fatalf("fired %d operations, want 10", len(dues))
	}
	for i, d := range dues {
		if want := start.Add(time.Duration(i) * 10 * time.Millisecond); !d.Equal(want) {
			t.Fatalf("op %d due %v, want %v", i, d, want)
		}
	}
	// Ops 1-3 were due during the stall: they are late, and their latency
	// counts the wait the stall imposed on them.
	wantLate := []float64{0, 25, 16, 7, 0}
	for i, w := range wantLate {
		if late[i] != w {
			t.Errorf("op %d: %v ms late, want %v", i, late[i], w)
		}
	}
	if lat[1] != 26*time.Millisecond {
		t.Errorf("op 1 latency %v, want 26ms (25ms of generator lateness + 1ms service)", lat[1])
	}
	if lat[5] != time.Millisecond {
		t.Errorf("op 5 latency %v, want 1ms once caught up", lat[5])
	}
}

func TestOpenLoopMergesStreamsInDueOrder(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{t: start}
	var order []string
	a := &stream{every: 3 * time.Millisecond, fire: func(int64, time.Time) { order = append(order, "a") }}
	b := &stream{every: 5 * time.Millisecond, fire: func(int64, time.Time) { order = append(order, "b") }}
	openLoop(start, start.Add(10*time.Millisecond), []*stream{a, b}, clk.now, clk.sleep)
	// a at 0,3,6,9; b at 0,5.
	want := "a b a b a a"
	got := ""
	for i, o := range order {
		if i > 0 {
			got += " "
		}
		got += o
	}
	if got != want {
		t.Fatalf("order %q, want %q", got, want)
	}
}

func TestLedgerCatchesPlantedFaults(t *testing.T) {
	at := time.Unix(2000, 0)
	clean := newLedger(10)
	for s := int64(0); s < 10; s++ {
		clean.deliver(s, int32(s%2), s/2, at)
	}
	if n := clean.errors(0, 10); n != 0 {
		t.Fatalf("clean delivery: %d errors", n)
	}

	missing := newLedger(10)
	for s := int64(0); s < 10; s++ {
		if s != 4 {
			missing.deliver(s, 0, s, at)
		}
	}
	if n := missing.errors(0, 10); n != 1 {
		t.Errorf("one missing record: %d errors, want 1", n)
	}

	dup := newLedger(10)
	for s := int64(0); s < 10; s++ {
		dup.deliver(s, 0, s, at)
	}
	if dup.deliver(7, 0, 10, at) {
		t.Error("duplicate delivery accepted")
	}
	if n := dup.errors(0, 10); n != 1 {
		t.Errorf("one duplicate: %d errors, want 1", n)
	}

	disorder := newLedger(3)
	disorder.deliver(0, 0, 5, at)
	disorder.deliver(1, 0, 4, at) // offset went backwards on partition 0
	disorder.deliver(2, 1, 0, at)
	if n := disorder.errors(0, 3); n != 1 {
		t.Errorf("out-of-order offset: %d errors, want 1", n)
	}

	foreign := newLedger(3)
	foreign.deliver(-1, 0, 0, at)
	foreign.deliver(3, 0, 1, at)
	if n := foreign.errors(0, 0); n != 2 {
		t.Errorf("unknown sequences: %d errors, want 2", n)
	}
}

func TestLedgerLatencyFromDue(t *testing.T) {
	l := newLedger(3)
	due := []int64{1e9, 2e9, 3e9}
	l.deliver(0, 0, 0, time.Unix(1, 5e6))
	l.deliver(2, 0, 1, time.Unix(3, 7e6))
	got := l.latencies(due, 0, 3)
	if len(got) != 2 || got[0] != 5 || got[1] != 7 {
		t.Fatalf("latencies %v, want [5 7] ms", got)
	}
}

func TestCountMismatches(t *testing.T) {
	want := map[string]int64{"a": 2, "b": 1}
	if n := countMismatches(want, map[string]int64{"a": 2, "b": 1}); n != 0 {
		t.Errorf("equal counts: %d mismatches", n)
	}
	if n := countMismatches(want, map[string]int64{"a": 3, "b": 1, "c": 1}); n != 2 {
		t.Errorf("one wrong count and one extra key: %d mismatches, want 2", n)
	}
	if n := countMismatches(want, map[string]int64{"a": 2}); n != 1 {
		t.Errorf("one missing key: %d mismatches, want 1", n)
	}
}

func TestHistQuantileInterpolatesInBucket(t *testing.T) {
	reg := liqmetrics.NewRegistry()
	h := reg.Histogram("h")
	for i := 0; i < 100; i++ {
		h.Observe(1024 + int64(i)) // all in bucket [1024, 2048)
	}
	d := snapshot(reg).hist("h", nil)
	if got := histQuantile(d, 0.5); got != 1024+1024*0.5 {
		t.Errorf("median %v, want 1536 (halfway through the bucket)", got)
	}
	if got := histQuantile(d, 0.99); got <= 2000 || got > 2048 {
		t.Errorf("p99 %v, want near the bucket's upper edge", got)
	}
}
