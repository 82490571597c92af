package main

import (
	"encoding/binary"
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/storage/record"
)

// seqHeader carries the generator sequence of a record through every hop,
// so one record's deliveries on the input and derived feeds link up.
const seqHeader = "bench-seq"

func seqHeaders(seq int64) []record.Header {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(seq))
	return []record.Header{{Key: seqHeader, Value: b[:]}}
}

var errNoSeq = errors.New("record has no sequence header")

func seqOf(m client.Message) (int64, error) {
	for _, h := range m.Headers {
		if h.Key == seqHeader && len(h.Value) == 8 {
			return int64(binary.BigEndian.Uint64(h.Value)), nil
		}
	}
	return 0, errNoSeq
}

// ledger is the reference check of one feed: every sequence in [0, n) is
// delivered exactly once, and each partition delivers in offset order. It
// also keeps each delivery's time for latency. One subscriber goroutine
// owns it; count may be read from others.
type ledger struct {
	at       []int64 // delivery time, unix ns; 0 = not delivered
	last     map[int32]int64
	count    atomic.Int64
	dups     int64
	disorder int64
	foreign  int64 // records without a valid sequence
}

func newLedger(n int) *ledger {
	return &ledger{at: make([]int64, n), last: make(map[int32]int64)}
}

// deliver records one delivered record. It reports false when the record
// was not a first, in-order delivery of a known sequence.
func (l *ledger) deliver(seq int64, partition int32, offset int64, at time.Time) bool {
	ok := true
	if last, seen := l.last[partition]; seen && offset <= last {
		l.disorder++
		ok = false
	}
	l.last[partition] = offset
	switch {
	case seq < 0 || seq >= int64(len(l.at)):
		l.foreign++
		return false
	case l.at[seq] != 0:
		l.dups++
		return false
	}
	l.at[seq] = at.UnixNano()
	l.count.Add(1)
	return ok
}

// missing counts the sequences in [from, to) never delivered.
func (l *ledger) missing(from, to int64) int64 {
	var n int64
	for s := from; s < to; s++ {
		if l.at[s] == 0 {
			n++
		}
	}
	return n
}

// errors counts every failed check so far plus the sequences of [from, to)
// still missing.
func (l *ledger) errors(from, to int64) int64 {
	return l.dups + l.disorder + l.foreign + l.missing(from, to)
}

// latencies returns, for each delivered sequence in [from, to), the time
// from its due time to its delivery, in milliseconds.
func (l *ledger) latencies(due []int64, from, to int64) []float64 {
	out := make([]float64, 0, to-from)
	for s := from; s < to; s++ {
		if l.at[s] != 0 && due[s] != 0 {
			out = append(out, float64(l.at[s]-due[s])/1e6)
		}
	}
	return out
}

// countMismatches compares per-key counts with the reference and returns
// how many keys differ, including keys present on one side only.
func countMismatches(want, got map[string]int64) int64 {
	var n int64
	for k, w := range want {
		if got[k] != w {
			n++
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			n++
		}
	}
	return n
}
