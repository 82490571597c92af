package main

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/table"
	"repro/internal/workload"
)

// serve is reads beside writes on the same layers: a preloaded table
// answers an open loop of zipf point Gets from nproc reader goroutines,
// each with its own client, while an acks=all writer streams zipf updates
// into the same keyspace and a raw tail of the table feed times them. It
// loads table, state.Mem, the broker table-get handler and wire framing;
// the append path gets little work, processing and tier none.
type serve struct {
	e         *env
	s         *core.Stack
	keys      [][]byte
	tableEnd  []int64
	userBytes int64 // value bytes produced so far
}

const (
	serveTable      = "profiles"
	servePartitions = 4
	serveKeys       = 200_000
	serveReaders    = 2
	serveGetRate    = 2_000 // Gets/s offered, split across the readers
	serveWriteRate  = 500   // updates/s offered
	serveValuePad   = 96
)

// serveValue is a table value: the key it belongs to, the writing sequence
// and padding, so a Get can check it was answered for the right key.
func serveValue(key []byte, tag string, seq int) []byte {
	v := make([]byte, 0, len(key)+len(tag)+12+serveValuePad)
	v = append(v, key...)
	v = append(v, '|')
	v = append(v, tag...)
	v = strconv.AppendInt(v, int64(seq), 10)
	v = append(v, '|')
	return append(v, bytes.Repeat([]byte{'x'}, serveValuePad)...)
}

// belongsTo reports whether a table value was written for key.
func belongsTo(v, key []byte) bool {
	return len(v) > len(key) && bytes.Equal(v[:len(key)], key) && v[len(key)] == '|'
}

func (w *serve) setup(dir string) (phases, error) {
	var ph phases
	t0 := time.Now()
	kg := workload.NewKeys(workload.KeyConfig{Seed: w.e.seed, Keys: serveKeys, Prefix: "user"})
	w.keys = make([][]byte, serveKeys)
	for i := range w.keys {
		w.keys[i] = kg.Key(i)
	}
	s, err := bootStack(w.e, dir, nil)
	if err != nil {
		return ph, err
	}
	w.s = s
	if err := s.CreateTable(serveTable, servePartitions, replicas); err != nil {
		return ph, fmt.Errorf("create %s: %w", serveTable, err)
	}
	ph.start = time.Since(t0)

	t1 := time.Now()
	err = preload(s, serveTable, serveKeys, func(i int) client.Message {
		v := serveValue(w.keys[i], "p", i)
		w.userBytes += int64(len(v))
		return client.Message{Topic: serveTable, Key: w.keys[i], Value: v}
	})
	if err != nil {
		return ph, err
	}
	ph.preload = time.Since(t1)

	// Materialize: every partition's view caught up with its high
	// watermark, then one Get per partition leader to open connections.
	t2 := time.Now()
	err = await(60*time.Second, "table materialization", func() (bool, error) {
		st, err := s.TableStatus(serveTable)
		if err != nil {
			return false, err
		}
		var hw int64
		for _, p := range st {
			if p.Lag() > 0 {
				return false, nil
			}
			hw += p.HighWatermark
		}
		return hw == serveKeys, nil
	})
	if err != nil {
		return ph, err
	}
	if w.tableEnd, err = endOffsets(s.Client(), serveTable); err != nil {
		return ph, err
	}
	ph.materialize = time.Since(t2)
	return ph, nil
}

func (w *serve) close() {
	if w.s != nil {
		w.s.Shutdown()
	}
}

// reader is one Get-issuing load goroutine's results.
type reader struct {
	lat, stale []float64
	answered   int64
	failed     int64
}

func (w *serve) measure() (*report, error) {
	e, s := w.e, w.s
	r := &report{offered: map[string]float64{"serve.get_s": serveGetRate, "serve.write_rec_s": serveWriteRate}}
	writes := int(e.seconds.Seconds()*serveWriteRate) + 1
	due := make([]int64, writes)
	tail := newLedger(writes)
	tsub, err := subscribe(s, e.tr, "feed.tail", serveTable, w.tableEnd, func(msgs []client.Message, at time.Time) {
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

	routers := make([]*table.Router, serveReaders)
	for i := range routers {
		c, err := s.NewClient(fmt.Sprintf("reader-%d", i))
		if err != nil {
			return nil, err
		}
		defer c.Close()
		routers[i] = table.NewRouter(c, serveTable)
		if _, err := routers[i].Get(w.keys[0], -1); err != nil {
			return nil, fmt.Errorf("warm-up get: %w", err)
		}
	}
	var sendErrs errCounter
	// The writer stays off the readers' clients: a Get queued behind an
	// acks=all produce on the same connection would time the produce.
	prod := s.NewProducer(client.ProducerConfig{Acks: client.AcksAll, OnError: sendErrs.onError})
	defer prod.Close()
	writeKeys := workload.NewKeys(workload.KeyConfig{Seed: e.seed + 1000, Keys: serveKeys})

	lag := sampleGauge(s, "broker.replica.lag.offsets")
	a := snapshot(s.Metrics())
	fs0, fsNs0 := e.fsync.n.Load(), e.fsync.ns.Load()
	p0 := readProc()
	start := time.Now().Add(10 * time.Millisecond)
	end := start.Add(e.seconds)

	readers := make([]reader, serveReaders)
	lates := make([][]float64, serveReaders)
	var sendFail int64
	var written int64
	var wg sync.WaitGroup
	for g := 0; g < serveReaders; g++ {
		rd := &readers[g]
		keys := workload.NewKeys(workload.KeyConfig{Seed: e.seed*100 + int64(g), Keys: serveKeys})
		streams := []*stream{{
			every: time.Second * serveReaders / serveGetRate,
			fire: func(i int64, d time.Time) {
				key := w.keys[keys.NextIndex()]
				t := time.Now()
				res, err := routers[g].Get(key, -1)
				got := time.Now()
				rd.lat = append(rd.lat, ms(got.Sub(d)))
				e.tr.record("client.get", "gen", int64(g)<<40|i, t, got.Sub(t), 0)
				switch {
				case err != nil, !res.Found, !belongsTo(res.Value, key):
					rd.failed++
				default:
					rd.answered++
					rd.stale = append(rd.stale, float64(res.HighWatermark-res.AppliedOffset))
				}
			},
		}}
		if g == 0 {
			streams = append(streams, &stream{
				every: time.Second / serveWriteRate,
				fire: func(i int64, d time.Time) {
					due[i] = d.UnixNano()
					key := w.keys[writeKeys.NextIndex()]
					v := serveValue(key, "w", int(i))
					w.userBytes += int64(len(v))
					t := e.tr.now()
					err := prod.Send(client.Message{Topic: serveTable, Key: key, Value: v, Headers: seqHeaders(i)})
					e.tr.since("client.send", "gen", i, t, 0)
					if err != nil {
						sendFail++
					}
					written = i + 1
				},
			})
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			lates[g] = openLoop(start, end, streams, time.Now, preciseSleep)
		}()
	}
	wg.Wait()
	if err := prod.Flush(); err != nil {
		r.detail("producer flush: %v", err)
	}
	drain := await(drainTimeout, "drain", func() (bool, error) { return tail.count.Load() >= written, nil })
	p1 := readProc()
	b := snapshot(s.Metrics())
	lagMax := lag.max()
	if err := tsub.stop(); err != nil {
		return nil, err
	}
	if drain != nil {
		r.detail("%v", drain)
	}

	var lat [][]float64
	var stale, late []float64
	var answered, failed int64
	for g, rd := range readers {
		lat = append(lat, rd.lat)
		stale = append(stale, rd.stale...)
		late = append(late, lates[g]...)
		answered += rd.answered
		failed += rd.failed
	}
	r.latency("feed", tail.latencies(due, 0, written))
	r.latency("get", lat...)
	cpu := (p1.user - p0.user) + (p1.sys - p0.sys)
	r.addE2E("cpu_us_per_op", float64(cpu.Microseconds())/float64(max(answered, 1)))

	r.check("gets found with the key's value", answered+failed, failed)
	r.check("producer deliveries", written, sendErrs.n.Load()+sendFail)
	r.check("table feed exactly-once in order", written, tail.errors(0, written))

	commonLayers(r, e, a, b, e.fsync.n.Load()-fs0, e.fsync.ns.Load()-fsNs0, lagMax, p0, p1)
	pollLayers(r, e.tr, "feed.tail")
	r.addLayer("gen.late_ms.p99", summarize(late, 0.99).Tail)
	gets := summarize(e.tr.durations("client.get"), 0.99)
	r.addLayer("client.get_ns.p50", gets.P50)
	r.addLayer("client.get_ns.p99", gets.Tail)
	tg := histDelta(a, b, "broker.api.latency.ns", map[string]string{"api": "table-get"})
	r.addLayer("broker.table_get_ns.p99", histQuantile(tg, supportedQuantile(int(tg.Count), 0.99)))
	var staleMax float64
	for _, v := range stale {
		staleMax = max(staleMax, v)
	}
	r.addLayer("table.stale_offsets.mean", mean(stale))
	r.addLayer("table.stale_offsets.max", staleMax)
	r.detail("table staleness: mean %.2f, max %.0f offsets over %d answers", mean(stale), staleMax, len(stale))
	r.addLayer("log.disk_bytes_per_user_byte", per(dirBytes(s.DataDir()), w.userBytes))
	return r, nil
}
