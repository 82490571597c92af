package main

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/wire"
)

// rewind is the unified offline path: a one-partition tiered feed whose
// history is about three times the tier reader cache (tier.DefaultCacheBytes,
// 64 MiB) in stored bytes, with a small hot retention, is scanned from
// offset 0 to its end again and again, crossing cold→hot. The payload is
// random, so it does not compress into the cache, and every pass hydrates
// from the DFS again. A low-rate live producer and tail run alongside, so a
// read-path change that stalls appends shows in feed_*. It loads tier,
// dfs, the cold and spliced fetch paths and consumer decode; little append
// work and no processing or table work.
type rewind struct {
	e          *env
	s          *core.Stack
	crcs       []uint32 // reference checksum of every history record, by offset
	offloadMBs float64
}

const (
	rewindTopic        = "history"
	rewindValueBytes   = 1024
	rewindRecords      = 200_000 // ≈195 MiB of values
	rewindSegmentBytes = 4 << 20
	rewindHotBytes     = 16 << 20
	rewindTailRate     = 500 // tail records/s
	rewindTailBytes    = 200
	rewindPassTimeout  = 60 * time.Second
)

func (w *rewind) setup(dir string) (phases, error) {
	var ph phases
	t0 := time.Now()
	s, err := bootStack(w.e, dir, func(c *core.Config) {
		c.TierInterval = 100 * time.Millisecond
		c.RetentionInterval = 100 * time.Millisecond
	})
	if err != nil {
		return ph, err
	}
	w.s = s
	err = s.CreateTopic(wire.TopicSpec{
		Name:              rewindTopic,
		NumPartitions:     1,
		ReplicationFactor: replicas,
		SegmentBytes:      rewindSegmentBytes,
		Tiered:            true,
		HotRetentionMs:    -1,
		HotRetentionBytes: rewindHotBytes,
		RetentionMs:       -1,
		RetentionBytes:    -1,
	})
	if err != nil {
		return ph, fmt.Errorf("create %s: %w", rewindTopic, err)
	}
	ph.start = time.Since(t0)

	t1 := time.Now()
	rng := rand.New(rand.NewSource(w.e.seed))
	w.crcs = make([]uint32, rewindRecords)
	err = preload(s, rewindTopic, rewindRecords, func(i int) client.Message {
		v := make([]byte, rewindValueBytes)
		rng.Read(v)
		w.crcs[i] = crc32.ChecksumIEEE(v)
		return client.Message{Topic: rewindTopic, Value: v}
	})
	if err != nil {
		return ph, err
	}
	ph.preload = time.Since(t1)

	// Materialize: hot retention enforced and the offload frontier at rest
	// for three tier intervals, so the scan starts cold and no upload runs
	// beside it.
	t2 := time.Now()
	var frontier int64 = -1
	stable := 0
	var st wire.TierStatusPartition
	err = await(120*time.Second, "tiering", func() (bool, error) {
		sts, err := s.TierStatus(rewindTopic)
		if err != nil || len(sts) != 1 {
			return false, err
		}
		st = sts[0]
		if st.TieredNextOffset == frontier {
			stable++
		} else {
			frontier, stable = st.TieredNextOffset, 0
		}
		time.Sleep(100 * time.Millisecond)
		return st.LocalStartOffset > 0 && st.TieredNextOffset >= st.LocalStartOffset &&
			st.LocalBytes <= rewindHotBytes+rewindSegmentBytes && stable >= 3, nil
	})
	if err != nil {
		return ph, err
	}
	ph.materialize = time.Since(t2)
	w.offloadMBs = float64(st.TieredBytes) / 1e6 / time.Since(t1).Seconds()
	return ph, nil
}

func (w *rewind) close() {
	if w.s != nil {
		w.s.Shutdown()
	}
}

// scanPass consumes the history from offset 0 to its end, checking offset
// order and every record's checksum. It returns the value bytes delivered
// and the failed checks.
func (w *rewind) scanPass(pass int) (int64, int64, error) {
	c := w.s.NewConsumer(client.ConsumerConfig{})
	defer c.Close()
	if err := c.Assign(rewindTopic, 0, 0); err != nil {
		return 0, 0, err
	}
	var next, bytes, bad int64
	deadline := time.Now().Add(rewindPassTimeout)
	for next < rewindRecords {
		if time.Now().After(deadline) {
			return bytes, bad, fmt.Errorf("scan pass %d stalled at offset %d", pass, next)
		}
		t := w.e.tr.now()
		msgs, err := c.Poll(100 * time.Millisecond)
		if err != nil {
			return bytes, bad, fmt.Errorf("scan pass %d: %w", pass, err)
		}
		w.e.tr.since("client.poll", "rewind.scan", next, t, int64(len(msgs)))
		for _, m := range msgs {
			if m.Offset >= rewindRecords {
				break // the live tail, past the history this pass checks
			}
			if m.Offset != next || crc32.ChecksumIEEE(m.Value) != w.crcs[m.Offset] {
				bad++
			}
			bytes += int64(len(m.Value))
			next = m.Offset + 1
		}
	}
	return bytes, bad, nil
}

func (w *rewind) measure() (*report, error) {
	e, s := w.e, w.s
	r := &report{offered: map[string]float64{"rewind.tail_rec_s": rewindTailRate}}
	tails := int(e.seconds.Seconds()*rewindTailRate) + 1
	due := make([]int64, tails)
	tail := newLedger(tails)
	tsub, err := subscribe(s, e.tr, "feed.tail", rewindTopic, []int64{rewindRecords}, func(msgs []client.Message, at time.Time) {
		for _, m := range msgs {
			seq, err := seqOf(m)
			if err != nil {
				seq = -1
			}
			tail.deliver(seq, m.Partition, m.Offset, at)
		}
	})
	if err != nil {
		return nil, err
	}
	defer tsub.stop() // also stopped below, where its error is checked
	var sendErrs errCounter
	prod := s.NewProducer(client.ProducerConfig{Acks: client.AcksAll, OnError: sendErrs.onError})
	defer prod.Close()
	rng := rand.New(rand.NewSource(e.seed + 1))

	lag := sampleGauge(s, "broker.replica.lag.offsets")
	a := snapshot(s.Metrics())
	dfs0 := s.TierFS().Stats()
	fs0, fsNs0 := e.fsync.n.Load(), e.fsync.ns.Load()
	p0 := readProc()
	start := time.Now().Add(10 * time.Millisecond)
	end := start.Add(e.seconds)

	var sendFail, written int64
	lateCh := make(chan []float64, 1)
	go func() {
		lateCh <- openLoop(start, end, []*stream{{
			every: time.Second / rewindTailRate,
			fire: func(i int64, d time.Time) {
				due[i] = d.UnixNano()
				v := make([]byte, rewindTailBytes)
				rng.Read(v)
				t := e.tr.now()
				if err := prod.Send(client.Message{Topic: rewindTopic, Value: v, Headers: seqHeaders(i)}); err != nil {
					sendFail++
				}
				e.tr.since("client.send", "gen", i, t, 0)
				written = i + 1
			},
		}}, time.Now, preciseSleep)
	}()

	// Scan passes back to back until the measured time is up; the pass
	// running at the deadline completes and counts.
	var rates []float64
	var scanned, scanBad int64
	var scanErr error
	for pass := 0; time.Now().Before(end) || pass == 0; pass++ {
		t := time.Now()
		bytes, bad, err := w.scanPass(pass)
		if err != nil {
			scanErr = err
			break
		}
		rates = append(rates, float64(bytes)/1e6/time.Since(t).Seconds())
		scanned += rewindRecords
		scanBad += bad
	}
	late := <-lateCh
	if err := prod.Flush(); err != nil {
		r.detail("producer flush: %v", err)
	}
	drain := await(drainTimeout, "drain", func() (bool, error) { return tail.count.Load() >= written, nil })
	p1 := readProc()
	b := snapshot(s.Metrics())
	dfs1 := s.TierFS().Stats()
	lagMax := lag.max()
	if err := tsub.stop(); err != nil {
		return nil, err
	}
	if scanErr != nil {
		return nil, scanErr
	}
	if drain != nil {
		r.detail("%v", drain)
	}

	r.latency("feed", tail.latencies(due, 0, written))
	r.addE2E("scan_mb_s", median(rates))
	r.detail("scan: %d passes of %d records, MB/s per pass %.1f", len(rates), rewindRecords, rates)
	cpu := (p1.user - p0.user) + (p1.sys - p0.sys)
	r.addE2E("cpu_us_per_op", float64(cpu.Microseconds())/float64(max(scanned+tail.count.Load(), 1)))

	r.check("scan passes in offset order with matching checksums", scanned, scanBad)
	r.check("producer deliveries", written, sendErrs.n.Load()+sendFail)
	r.check("tail exactly-once in order", written, tail.errors(0, written))

	commonLayers(r, e, a, b, e.fsync.n.Load()-fs0, e.fsync.ns.Load()-fsNs0, lagMax, p0, p1)
	pollLayers(r, e.tr, "rewind.scan")
	r.addLayer("gen.late_ms.p99", summarize(late, 0.99).Tail)
	hits := counterDelta(a, b, "tier.cache.hit", nil)
	misses := counterDelta(a, b, "tier.cache.miss", nil)
	r.addLayer("tier.cache_hit_frac", per(hits, hits+misses))
	r.addLayer("tier.cold_read_bytes", float64(counterDelta(a, b, "tier.reads.cold.bytes", nil)))
	r.addLayer("dfs.bytes_read", float64(dfs1.BytesRead-dfs0.BytesRead))
	r.addLayer("tier.offload_mb_s", w.offloadMBs)
	r.addLayer("log.disk_bytes_per_user_byte",
		per(dirBytes(s.DataDir()), rewindRecords*rewindValueBytes+written*rewindTailBytes))
	return r, nil
}
