package main

import (
	"fmt"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/processing"
	"repro/internal/workload"
)

// live is the paper's nearline path: zipf-keyed RUM events on an input
// feed, a stateful per-key count job with a changelogged store, and a
// derived feed of the counts. Fresh jobs first drain a preloaded backlog
// one after another (catch-up), then an open loop produces at a fixed rate
// well under capacity. It loads the producer, wire, broker produce/fetch, log append,
// group commit, replication, processing and state; it does no table or
// tier work.
type live struct {
	e *env
	s *core.Stack

	backlogEnd []int64 // input-feed end offsets after the preload
	keys       [][]byte
	keyOf      []int32 // key index of every generated record, by sequence
	userBytes  int64   // value bytes generated so far
	values     *workload.RUMGenerator
	keyGen     *workload.KeyGenerator
}

const (
	liveInput      = "rum"
	liveDerived    = "rum-counts"
	liveJob        = "counter"
	liveStore      = "counts"
	livePartitions = 8
	liveKeys       = 50_000
	liveBacklog    = 200_000
	liveRounds     = 3     // catch-up rounds, each a fresh job
	liveRate       = 4_000 // records/s offered by the open loop
)

func (w *live) total() int {
	return liveBacklog + int(w.e.seconds.Seconds()*liveRate) + 1
}

// next generates record seq; records must be generated in order.
func (w *live) next(seq int) client.Message {
	k := w.keyGen.NextIndex()
	w.keyOf[seq] = int32(k)
	v := w.values.Next().Encode()
	w.userBytes += int64(len(v))
	return client.Message{
		Topic:   liveInput,
		Key:     w.keys[k],
		Value:   v,
		Headers: seqHeaders(int64(seq)),
	}
}

func (w *live) setup(dir string) (phases, error) {
	var ph phases
	t0 := time.Now()
	w.keyGen = workload.NewKeys(workload.KeyConfig{Seed: w.e.seed, Keys: liveKeys, Prefix: "page"})
	w.values = workload.NewRUM(workload.RUMConfig{Seed: w.e.seed}, 1_700_000_000_000)
	w.keys = make([][]byte, liveKeys)
	for i := range w.keys {
		w.keys[i] = w.keyGen.Key(i)
	}
	w.keyOf = make([]int32, w.total())
	s, err := bootStack(w.e, dir, nil)
	if err != nil {
		return ph, err
	}
	w.s = s
	topics := []string{liveInput}
	for round := 0; round < liveRounds; round++ {
		topics = append(topics, fmt.Sprintf("%s-%d", liveDerived, round))
	}
	for _, t := range topics {
		if err := s.CreateFeed(t, livePartitions, replicas); err != nil {
			return ph, fmt.Errorf("create %s: %w", t, err)
		}
	}
	ph.start = time.Since(t0)

	t1 := time.Now()
	if err := preload(s, liveInput, liveBacklog, w.next); err != nil {
		return ph, err
	}
	ph.preload = time.Since(t1)

	// Warm-up: resolve leaders and open fetch connections on both feeds.
	t2 := time.Now()
	if w.backlogEnd, err = endOffsets(s.Client(), liveInput); err != nil {
		return ph, err
	}
	for _, t := range topics[1:] {
		if _, err := endOffsets(s.Client(), t); err != nil {
			return ph, err
		}
	}
	ph.materialize = time.Since(t2)
	return ph, nil
}

func (w *live) close() {
	if w.s != nil {
		w.s.Shutdown()
	}
}

// countTask is the job under test: a per-key count in a changelogged
// store, emitting the new count for every input record.
type countTask struct {
	tr  *tracer
	out string // derived feed
}

func (t countTask) Process(msg client.Message, ctx *processing.TaskContext, out *processing.Collector) error {
	start := t.tr.now()
	seq, err := seqOf(msg)
	if err != nil {
		return err
	}
	st := ctx.Store(liveStore)
	g := t.tr.now()
	v, _, err := st.Get(msg.Key)
	t.tr.since("state.get", "job.process", seq, g, 0)
	if err != nil {
		return err
	}
	var n int64
	if len(v) > 0 {
		if n, err = strconv.ParseInt(string(v), 10, 64); err != nil {
			return err
		}
	}
	count := strconv.AppendInt(nil, n+1, 10)
	p := t.tr.now()
	err = st.Put(msg.Key, count)
	t.tr.since("state.put", "job.process", seq, p, 0)
	if err != nil {
		return err
	}
	err = out.SendMessage(client.Message{Topic: t.out, Key: msg.Key, Value: count, Headers: seqHeaders(seq)})
	t.tr.since("job.process", "client.poll", seq, start, 0)
	return err
}

// derivedFeed is one catch-up round's output: the derived feed its job
// writes, tailed from offset 0 and checked exactly-once, with the latest
// count seen per key.
type derivedFeed struct {
	job    *processing.Job
	sub    *subscriber
	ledger *ledger
	mu     sync.Mutex
	counts map[string]int64
}

// snapshotCounts returns a copy of the latest count per key.
func (d *derivedFeed) snapshotCounts() map[string]int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]int64, len(d.counts))
	for k, v := range d.counts {
		out[k] = v
	}
	return out
}

// catchUp starts a fresh job on the backlog, writing to round's derived
// feed, and returns once every backlog record's count is committed there
// and delivered to the tail.
func (w *live) catchUp(round, total int) (*derivedFeed, time.Duration, error) {
	e, s := w.e, w.s
	topic := fmt.Sprintf("%s-%d", liveDerived, round)
	d := &derivedFeed{ledger: newLedger(total), counts: make(map[string]int64)}
	sub, err := subscribe(s, e.tr, "derived.tail", topic, make([]int64, livePartitions), func(msgs []client.Message, at time.Time) {
		d.mu.Lock()
		defer d.mu.Unlock()
		for _, m := range msgs {
			seq, err := seqOf(m)
			if err != nil {
				seq = -1
			}
			d.ledger.deliver(seq, m.Partition, m.Offset, at)
			n, _ := strconv.ParseInt(string(m.Value), 10, 64)
			d.counts[string(m.Key)] = n
		}
	})
	if err != nil {
		return nil, 0, err
	}
	d.sub = sub
	start := time.Now()
	d.job, err = s.RunJob(processing.JobConfig{
		Name:                 fmt.Sprintf("%s-%d", liveJob, round),
		Inputs:               []string{liveInput},
		Factory:              func() processing.StreamTask { return countTask{tr: e.tr, out: topic} },
		Stores:               []processing.StoreSpec{{Name: liveStore}},
		ChangelogReplication: replicas,
		DataDir:              filepath.Join(s.DataDir(), "jobs"),
		Metrics:              s.Metrics(),
	})
	if err != nil {
		d.sub.stop()
		return nil, 0, err
	}
	err = await(120*time.Second, "catch-up", func() (bool, error) {
		return d.ledger.count.Load() >= liveBacklog, nil
	})
	return d, time.Since(start), err
}

func (w *live) measure() (*report, error) {
	e, s := w.e, w.s
	r := &report{offered: map[string]float64{"live.produce_rec_s": liveRate}}
	total := w.total()
	due := make([]int64, total)
	raw := newLedger(total)
	want := make(map[string]int64)
	for seq := 0; seq < liveBacklog; seq++ {
		want[string(w.keys[w.keyOf[seq]])]++
	}

	// Catch-up rounds: each a fresh job draining the whole backlog into its
	// own derived feed; catchup_rec_s is the median round. The last round's
	// job stays up for the open loop.
	a0 := snapshot(s.Metrics())
	c0 := readProc()
	var rates []float64
	var derived *derivedFeed
	for round := 0; round < liveRounds; round++ {
		d, took, err := w.catchUp(round, total)
		if err != nil {
			if d != nil {
				d.sub.stop()
			}
			return nil, err
		}
		rates = append(rates, liveBacklog/took.Seconds())
		if round == liveRounds-1 {
			derived = d
			break
		}
		d.job.Stop()
		if err := d.sub.stop(); err != nil {
			return nil, err
		}
		r.check(fmt.Sprintf("round %d derived feed exactly-once in order", round), liveBacklog, d.ledger.errors(0, liveBacklog))
		r.check(fmt.Sprintf("round %d per-key counts vs reference", round), int64(len(want)), countMismatches(want, d.snapshotCounts()))
	}
	defer derived.sub.stop() // also stopped below, where its error is checked
	r.addE2E("catchup_rec_s", median(rates))
	r.detail("catch-up: %d records per round, rec/s per round %.0f", liveBacklog, rates)

	// Open loop.
	job := derived.job
	rsub, err := subscribe(s, e.tr, "feed.tail", liveInput, w.backlogEnd, func(msgs []client.Message, at time.Time) {
		for _, m := range msgs {
			seq, err := seqOf(m)
			if err != nil {
				seq = -1
			}
			raw.deliver(seq, m.Partition, m.Offset, at)
		}
	})
	if err != nil {
		return nil, err
	}
	defer rsub.stop() // also stopped below, where its error is checked
	var sendErrs errCounter
	prod := s.NewProducer(client.ProducerConfig{Acks: client.AcksAll, OnError: sendErrs.onError})
	defer prod.Close()
	lag := sampleGauge(s, "broker.replica.lag.offsets")
	a := snapshot(s.Metrics())
	fs0, fsNs0 := e.fsync.n.Load(), e.fsync.ns.Load()
	p0 := readProc()
	start := time.Now().Add(10 * time.Millisecond)
	end := start.Add(e.seconds)
	var sendFail int64
	gen := &stream{every: time.Second / liveRate, fire: func(i int64, d time.Time) {
		seq := liveBacklog + int(i)
		due[seq] = d.UnixNano()
		m := w.next(seq)
		t := e.tr.now()
		if err := prod.Send(m); err != nil {
			sendFail++
		}
		e.tr.since("client.send", "gen", int64(seq), t, 0)
	}}
	late := openLoop(start, end, []*stream{gen}, time.Now, preciseSleep)
	sent := liveBacklog + int(gen.next)
	if err := prod.Flush(); err != nil {
		r.detail("producer flush: %v", err)
	}
	drain := await(drainTimeout, "drain", func() (bool, error) {
		return raw.count.Load() >= gen.next && derived.ledger.count.Load() >= int64(sent), nil
	})
	p1 := readProc()
	b := snapshot(s.Metrics())
	lagMax := lag.max()
	rerr := rsub.stop()
	job.Stop()
	derr := derived.sub.stop()
	if drain != nil {
		r.detail("%v", drain)
	}
	if rerr != nil {
		return nil, rerr
	}
	if derr != nil {
		return nil, derr
	}

	feed := raw.latencies(due, liveBacklog, int64(sent))
	e2e := derived.ledger.latencies(due, liveBacklog, int64(sent))
	r.latency("feed", feed)
	r.latency("e2e", e2e)
	// CPU per record covers both phases: the catch-up rounds' bulk
	// processing and the open loop, per record delivered on a feed tail.
	cpu := (p1.user - c0.user) + (p1.sys - c0.sys)
	delivered := liveBacklog*(liveRounds-1) + derived.ledger.count.Load() + raw.count.Load()
	r.addE2E("cpu_us_per_op", float64(cpu.Microseconds())/float64(max(delivered, 1)))

	// Reference checks: both feeds exactly once and in order, and the final
	// count per key equals a single-threaded count over the input.
	r.check("producer deliveries", int64(sent-liveBacklog), sendErrs.n.Load()+sendFail)
	r.check("input feed exactly-once in order", int64(sent-liveBacklog), raw.errors(liveBacklog, int64(sent)))
	r.check("derived feed exactly-once in order", int64(sent), derived.ledger.errors(0, int64(sent)))
	for seq := liveBacklog; seq < sent; seq++ {
		want[string(w.keys[w.keyOf[seq]])]++
	}
	r.check("per-key counts vs reference", int64(len(want)), countMismatches(want, derived.snapshotCounts()))

	// Per-layer.
	commonLayers(r, e, a, b, e.fsync.n.Load()-fs0, e.fsync.ns.Load()-fsNs0, lagMax, p0, p1)
	pollLayers(r, e.tr, "feed.tail")
	r.addLayer("gen.late_ms.p99", summarize(late, 0.99).Tail)
	r.addLayer("job.process_ns.p50", summarize(e.tr.durations("job.process"), 0.5).P50)
	hops := make([]float64, 0, len(e2e))
	for seq := int64(liveBacklog); seq < int64(sent); seq++ {
		if raw.at[seq] != 0 && derived.ledger.at[seq] != 0 {
			hops = append(hops, float64(derived.ledger.at[seq]-raw.at[seq])/1e6)
		}
	}
	r.addLayer("job.hop_ms.p50", summarize(hops, 0.5).P50)
	r.addLayer("state.get_ns.p50", summarize(e.tr.durations("state.get"), 0.5).P50)
	r.addLayer("state.put_ns.p50", summarize(e.tr.durations("state.put"), 0.5).P50)
	bEnd := snapshot(s.Metrics())
	var checkpoints, clRecs, inputs int64
	for round := 0; round < liveRounds; round++ {
		name := fmt.Sprintf("%s-%d", liveJob, round)
		checkpoints += counterDelta(a0, bEnd, name+".checkpoints", nil)
		inputs += counterDelta(a0, bEnd, name+".processed", nil)
		changelog, err := endOffsets(s.Client(), fmt.Sprintf("%s-%s-changelog", name, liveStore))
		if err != nil {
			return nil, err
		}
		for _, o := range changelog {
			clRecs += o
		}
	}
	r.addLayer("job.checkpoints", float64(checkpoints))
	r.addLayer("job.changelog_recs_per_input", per(clRecs, inputs))
	r.addLayer("log.disk_bytes_per_user_byte", per(dirBytes(s.DataDir()), w.userBytes))
	return r, nil
}
