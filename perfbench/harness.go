package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/storage/log"
	"repro/internal/wire"
)

const (
	brokers  = 2
	replicas = 2
	// barrier is the modeled write barrier every fsync pays on top of the
	// real one, as in E20: on tmpfs or a write-back cache the real fsync is
	// nearly free, which would hide the cost group commit amortizes.
	barrier = time.Millisecond
	// setups is how many times a run sets up its stack; setup_s is the
	// median, and only the last set-up is measured.
	setups = 3
	// preloadChunkBytes bounds what one preload Flush carries: an unpaced
	// Send loop lets the background flush build a single produce request
	// over wire.MaxFrameSize, and those records are lost (reported only to
	// OnError, while Flush returns nil).
	preloadChunkBytes = 8 << 20
	// drainTimeout bounds the wait for acked records to reach subscribers
	// after the load stops.
	drainTimeout = 30 * time.Second
)

// env is what every workload run shares.
type env struct {
	seed    int64
	seconds time.Duration
	tr      *tracer // nil in the untraced run
	fsync   *fsyncProbe
}

// fsyncProbe is the log.Durability Syncer: the real fsync, then the
// modeled barrier. It counts syncs and, traced, records a span per sync.
type fsyncProbe struct {
	n, ns atomic.Int64
	tr    *tracer
}

func (p *fsyncProbe) sync(f *os.File) error {
	start := time.Now()
	if err := f.Sync(); err != nil {
		return err
	}
	time.Sleep(barrier)
	d := time.Since(start)
	id := p.n.Add(1)
	p.ns.Add(int64(d))
	p.tr.record("log.fsync", "broker.produce", id, start, d, 0)
	return nil
}

// bootStack starts the shared two-broker stack with group commit on dir.
func bootStack(e *env, dir string, mutate func(*core.Config)) (*core.Stack, error) {
	cfg := core.Config{
		Brokers:    brokers,
		DataDir:    dir,
		Durability: log.Durability{Policy: log.SyncGroup, Syncer: e.fsync.sync},
		Logger:     slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError})),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return core.Start(cfg)
}

// phases times one set-up.
type phases struct {
	start, preload, materialize time.Duration
}

func (p phases) total() time.Duration { return p.start + p.preload + p.materialize }

// errCounter counts asynchronous producer failures (OnError deliveries).
type errCounter struct{ n atomic.Int64 }

func (c *errCounter) onError(client.Message, error) { c.n.Add(1) }

// preload produces n generated records with acks=all in bounded chunks,
// flushing after each, then checks that the topic's log-end offsets add up
// to n. gen returns record i; it must be called in order.
func preload(s *core.Stack, topic string, n int, gen func(i int) client.Message) error {
	var errs errCounter
	p := s.NewProducer(client.ProducerConfig{Acks: client.AcksAll, BatchBytes: preloadChunkBytes, OnError: errs.onError})
	defer p.Close()
	chunk := 0
	for i := 0; i < n; i++ {
		m := gen(i)
		if err := p.Send(m); err != nil {
			return fmt.Errorf("preload %s: send %d: %w", topic, i, err)
		}
		if chunk += len(m.Key) + len(m.Value) + 64; chunk >= preloadChunkBytes || i == n-1 {
			if err := p.Flush(); err != nil {
				return fmt.Errorf("preload %s: flush: %w", topic, err)
			}
			chunk = 0
		}
	}
	if e := errs.n.Load(); e > 0 {
		return fmt.Errorf("preload %s: %d records failed delivery", topic, e)
	}
	ends, err := endOffsets(s.Client(), topic)
	if err != nil {
		return err
	}
	var total int64
	for _, o := range ends {
		total += o
	}
	if total != int64(n) {
		return fmt.Errorf("preload %s: log ends sum to %d, want %d", topic, total, n)
	}
	return nil
}

// endOffsets returns every partition's committed end offset.
func endOffsets(c *client.Client, topic string) ([]int64, error) {
	n, err := c.PartitionCount(topic)
	if err != nil {
		return nil, err
	}
	out := make([]int64, n)
	for p := range out {
		if out[p], err = c.ListOffset(topic, int32(p), wire.TimestampLatest); err != nil {
			return nil, fmt.Errorf("end offset %s/%d: %w", topic, p, err)
		}
	}
	return out, nil
}

// subscriber tails every partition of a topic from the given offsets on
// its own goroutine, handing each polled batch to onBatch. Traced, each
// poll is a client.poll span whose parent is the subscriber's role.
type subscriber struct {
	cancel context.CancelFunc
	done   chan struct{}
	err    error
}

func subscribe(s *core.Stack, tr *tracer, role, topic string, from []int64, onBatch func([]client.Message, time.Time)) (*subscriber, error) {
	cons := s.NewConsumer(client.ConsumerConfig{})
	for p, off := range from {
		if err := cons.Assign(topic, int32(p), off); err != nil {
			cons.Close()
			return nil, err
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	sub := &subscriber{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(sub.done)
		defer cons.Close()
		var polls int64
		for ctx.Err() == nil {
			start := time.Now()
			msgs, err := cons.Poll(50 * time.Millisecond)
			at := time.Now()
			if err != nil {
				if ctx.Err() == nil {
					sub.err = fmt.Errorf("%s poll: %w", role, err)
				}
				return
			}
			polls++
			tr.record("client.poll", role, polls, start, at.Sub(start), int64(len(msgs)))
			if len(msgs) > 0 {
				onBatch(msgs, at)
			}
		}
	}()
	return sub, nil
}

// stop ends the subscriber and waits for its goroutine.
func (s *subscriber) stop() error {
	s.cancel()
	<-s.done
	return s.err
}

// await polls cond until it holds or the timeout passes.
func await(timeout time.Duration, what string, cond func() (bool, error)) error {
	deadline := time.Now().Add(timeout)
	for {
		ok, err := cond()
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			if err == nil {
				err = errors.New("timed out")
			}
			return fmt.Errorf("%s: %w after %s", what, err, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// gaugeSampler records the largest value a gauge family reaches while it
// runs, sampling every 100ms.
type gaugeSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak atomic.Int64
}

func sampleGauge(s *core.Stack, family string) *gaugeSampler {
	g := &gaugeSampler{stop: make(chan struct{})}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-t.C:
				if v := snapshot(s.Metrics()).maxGauge(family); v > g.peak.Load() {
					g.peak.Store(v)
				}
			}
		}
	}()
	return g
}

func (g *gaugeSampler) max() int64 {
	close(g.stop)
	g.wg.Wait()
	return g.peak.Load()
}

// value is one reported metric.
type value struct {
	name, unit string
	v          float64
}

// report is what one measured phase produced.
type report struct {
	attempted, failed int64
	e2e, layer        []value
	details           []string           // sample counts and check results, printed before the result
	offered           map[string]float64 // offered rates, for the environment record
}

// spec is a metric's unit and whether it is in the result line. The
// metrics in the result line are the ones BENCHMARK.json lists, and every
// workload reports them; the others are printed by the workloads that
// measure them.
type spec struct {
	unit     string
	inResult bool
}

// e2eSpecs are the end-to-end metrics. Only the three that hold steady on
// a host whose CPU steal swings from a few percent to 40% between runs are
// in the result line; the latencies and throughputs are printed but not
// bounded (README.md, "Gated metrics").
var e2eSpecs = map[string]spec{
	"setup_s":       {"s", true},
	"feed_p50_ms":   {"ms", false},
	"feed_p99_ms":   {"ms", false},
	"e2e_p50_ms":    {"ms", false},
	"e2e_p99_ms":    {"ms", false},
	"catchup_rec_s": {"rec/s", false},
	"get_p50_ms":    {"ms", false},
	"get_p99_ms":    {"ms", false},
	"scan_mb_s":     {"MB/s", false},
	"cpu_us_per_op": {"us", true},
	"peak_rss_mb":   {"MB", true},
}

// layerSpecs are the per-layer metrics of the traced run; the ones every
// workload measures are in the result line.
var layerSpecs = map[string]spec{
	"client.send_ns.p99":             {"ns", true},
	"client.poll_ns.p50":             {"ns", true},
	"client.poll_records.mean":       {"count", true},
	"client.poll_empty_frac":         {"fraction", true},
	"client.get_ns.p50":              {"ns", false},
	"client.get_ns.p99":              {"ns", false},
	"gen.late_ms.p99":                {"ms", true},
	"broker.produce_ns.mean":         {"ns", true},
	"broker.produce_ns.p99":          {"ns", true},
	"broker.produce_req_per_krec":    {"1/krec", true},
	"broker.fetch_req_per_krec":      {"1/krec", true},
	"broker.fetch_bytes_per_req":     {"B", true},
	"broker.fetch_splice_frac":       {"fraction", true},
	"broker.table_get_ns.p99":        {"ns", false},
	"broker.api_errors":              {"count", true},
	"log.fsync_count":                {"count", true},
	"log.fsync_ns.mean":              {"ns", true},
	"log.recs_per_fsync":             {"count", true},
	"log.disk_bytes_per_user_byte":   {"ratio", true},
	"broker.replica_lag_offsets.max": {"offsets", true},
	"job.process_ns.p50":             {"ns", false},
	"job.hop_ms.p50":                 {"ms", false},
	"state.get_ns.p50":               {"ns", false},
	"state.put_ns.p50":               {"ns", false},
	"job.checkpoints":                {"count", false},
	"job.changelog_recs_per_input":   {"count", false},
	"tier.cache_hit_frac":            {"fraction", false},
	"tier.cold_read_bytes":           {"B", false},
	"dfs.bytes_read":                 {"B", false},
	"tier.offload_mb_s":              {"MB/s", false},
	"table.stale_offsets.mean":       {"offsets", false},
	"table.stale_offsets.max":        {"offsets", false},
	"setup.start_s":                  {"s", true},
	"setup.preload_s":                {"s", true},
	"setup.materialize_s":            {"s", true},
	"go.gc_pause_ns.p99":             {"ns", true},
	"cpu.sys_frac":                   {"fraction", true},
}

func (r *report) addE2E(name string, v float64) {
	r.e2e = append(r.e2e, value{name, e2eSpecs[name].unit, v})
}

func (r *report) addLayer(name string, v float64) {
	r.layer = append(r.layer, value{name, layerSpecs[name].unit, v})
}

func (r *report) detail(format string, args ...any) {
	r.details = append(r.details, fmt.Sprintf(format, args...))
}

// latency adds a latency pair (median and p99) with its sample count. Each
// list is one open-loop stream's latencies in due order.
func (r *report) latency(prefix string, lists ...[]float64) {
	sm := windowed(lists...)
	r.addE2E(prefix+"_p50_ms", sm.P50)
	r.addE2E(prefix+"_p99_ms", sm.Tail)
	r.detail("%s: p50 %.3f ms, p%g %.3f ms over %d samples (medians of %d windows)",
		prefix, sm.P50, sm.TailQ*100, sm.Tail, sm.N, windows)
}

// check counts one reference check into attempted/failed and details.
func (r *report) check(what string, attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
	r.detail("check %s: %d attempted, %d failed", what, attempted, failed)
}

// commonLayers adds the per-layer metrics every workload reads the same
// way: registry deltas around the measured phase, the fsync probe, the
// replica-lag sampler and the process clock.
func commonLayers(r *report, e *env, a, b regSnap, fsyncs, fsyncNs int64, lagMax int64, p0, p1 procClock) {
	tr := e.tr
	prod := map[string]string{"api": "produce"}
	fetch := map[string]string{"api": "fetch"}
	recsIn := counterDelta(a, b, "broker.messages.in", nil)
	consumed := counterDelta(a, b, "client.consume.records", nil)
	produceH := histDelta(a, b, "broker.api.latency.ns", prod)
	fetchReqs := counterDelta(a, b, "broker.api.requests", fetch)
	fetchBytes := counterDelta(a, b, "broker.fetch.bytes", nil)
	r.addLayer("client.send_ns.p99", summarize(tr.durations("client.send"), 0.99).Tail)
	r.addLayer("broker.produce_ns.mean", histMean(produceH))
	r.addLayer("broker.produce_ns.p99", histQuantile(produceH, supportedQuantile(int(produceH.Count), 0.99)))
	r.addLayer("broker.produce_req_per_krec", per(counterDelta(a, b, "broker.api.requests", prod)*1000, recsIn))
	r.addLayer("broker.fetch_req_per_krec", per(fetchReqs*1000, consumed))
	r.addLayer("broker.fetch_bytes_per_req", per(fetchBytes, fetchReqs))
	r.addLayer("broker.fetch_splice_frac", per(counterDelta(a, b, "broker.fetch.splice.bytes", nil), fetchBytes))
	r.addLayer("broker.api_errors", float64(counterDelta(a, b, "broker.api.errors", nil)))
	r.addLayer("log.fsync_count", float64(fsyncs))
	r.addLayer("log.fsync_ns.mean", per(fsyncNs, fsyncs))
	r.addLayer("log.recs_per_fsync", per(recsIn, fsyncs))
	r.addLayer("broker.replica_lag_offsets.max", float64(lagMax))
	r.addLayer("go.gc_pause_ns.p99", gcPauseQuantile(p0, p1, 0.99))
	cpu := (p1.user - p0.user) + (p1.sys - p0.sys)
	r.addLayer("cpu.sys_frac", per(int64(p1.sys-p0.sys), int64(cpu)))
}

// pollLayers adds the client.poll_* metrics of one subscriber role.
func pollLayers(r *report, tr *tracer, role string) {
	var durs, recs []float64
	var empty int
	tr.each("client.poll", func(s span) {
		if s.parent != role {
			return
		}
		durs = append(durs, float64(s.dur))
		recs = append(recs, float64(s.arg))
		if s.arg == 0 {
			empty++
		}
	})
	r.addLayer("client.poll_ns.p50", summarize(durs, 0.5).P50)
	r.addLayer("client.poll_records.mean", mean(recs))
	r.addLayer("client.poll_empty_frac", per(int64(empty), int64(len(durs))))
}

// per is a/b, or 0 when b is 0 (the layer did no such work).
func per(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// setupLayers adds the set-up phase medians.
func setupLayers(r *report, ps []phases) {
	var start, pre, mat []float64
	for _, p := range ps {
		start = append(start, p.start.Seconds())
		pre = append(pre, p.preload.Seconds())
		mat = append(mat, p.materialize.Seconds())
	}
	r.addLayer("setup.start_s", median(start))
	r.addLayer("setup.preload_s", median(pre))
	r.addLayer("setup.materialize_s", median(mat))
}

// sortedValues orders metrics by name for stable printing.
func sortedValues(v []value) []value {
	out := append([]value(nil), v...)
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
