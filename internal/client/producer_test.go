package client

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/storage/record"
	"repro/internal/wire"
)

// fakeBroker is a minimal wire-protocol server for client-local tests: it
// answers metadata with itself as leader of every partition of topic
// "t" and lets the test hold produce responses open, which is how the
// flush-race regression test wins the background-flush race
// deterministically (no sleeps, no timing assumptions).
type fakeBroker struct {
	ln   net.Listener
	addr string

	produceStarted chan struct{} // signalled when a produce request arrives
	releaseProduce chan struct{} // closed to let produce responses flow
	produced       atomic.Int64  // partition batches acked so far
	records        atomic.Int64  // records in those batches
	failProduces   atomic.Int32  // produce attempts to fail with not-leader
}

func startFakeBroker(t *testing.T) *fakeBroker {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	f := &fakeBroker{
		ln:             ln,
		addr:           ln.Addr().String(),
		produceStarted: make(chan struct{}, 16),
		releaseProduce: make(chan struct{}),
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go f.serve(conn)
		}
	}()
	return f
}

func (f *fakeBroker) serve(conn net.Conn) {
	defer conn.Close()
	port := int32(f.ln.Addr().(*net.TCPAddr).Port)
	for {
		payload, err := wire.ReadFrame(conn)
		if err != nil {
			return
		}
		hdr, r, err := wire.DecodeRequest(payload)
		if err != nil {
			return
		}
		var resp wire.Message
		switch hdr.API {
		case wire.APIMetadata:
			resp = &wire.MetadataResponse{
				Brokers:      []wire.BrokerMeta{{ID: 1, Host: "127.0.0.1", Port: port}},
				ControllerID: 1,
				Topics: []wire.TopicMeta{{
					Name: "t",
					Partitions: []wire.PartitionMeta{
						{ID: 0, Leader: 1, Replicas: []int32{1}, ISR: []int32{1}},
					},
				}},
			}
		case wire.APIProduce:
			var req wire.ProduceRequest
			req.Decode(r)
			f.produceStarted <- struct{}{}
			if f.failProduces.Load() > 0 {
				// A failed attempt answers immediately (no hold): the
				// client's retry loop proceeds, and the NEXT attempt blocks
				// on releaseProduce — that is how the retry/Flush test
				// freezes a delivery mid-retry.
				f.failProduces.Add(-1)
				pr := &wire.ProduceResponse{}
				for _, t := range req.Topics {
					rt := wire.ProduceRespTopic{Name: t.Name}
					for _, p := range t.Partitions {
						rt.Partitions = append(rt.Partitions, wire.ProduceRespPartition{
							Partition: p.Partition, Err: wire.ErrNotLeaderForPartition, BaseOffset: -1,
						})
					}
					pr.Topics = append(pr.Topics, rt)
				}
				resp = pr
				break
			}
			<-f.releaseProduce
			pr := &wire.ProduceResponse{}
			n := int64(0)
			for _, t := range req.Topics {
				rt := wire.ProduceRespTopic{Name: t.Name}
				for _, p := range t.Partitions {
					n++
					if info, err := record.PeekBatchInfo(p.Records); err == nil {
						f.records.Add(int64(info.RecordCount))
					}
					rt.Partitions = append(rt.Partitions, wire.ProduceRespPartition{
						Partition: p.Partition, BaseOffset: 0,
					})
				}
				pr.Topics = append(pr.Topics, rt)
			}
			f.produced.Add(n)
			resp = pr
		case wire.APIInitProducer:
			resp = &wire.InitProducerResponse{ProducerID: 1, Epoch: 0}
		default:
			resp = &wire.ProduceResponse{}
		}
		if err := wire.WriteResponseFrame(conn, hdr.CorrelationID, resp); err != nil {
			return
		}
	}
}

// newRaceProducer builds a producer whose background flusher claims every
// enqueued record immediately (BatchBytes 1) — the same code path a linger
// tick takes, made deterministic.
func newRaceProducer(t *testing.T, f *fakeBroker) (*Client, *Producer) {
	t.Helper()
	c, err := New(Config{Bootstrap: []string{f.addr}, MetadataTTL: time.Hour})
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	t.Cleanup(c.Close)
	p := NewProducer(c, ProducerConfig{
		BatchBytes: 1,         // any send triggers an immediate background flush
		Linger:     time.Hour, // the ticker itself must never interfere
	})
	return c, p
}

// TestFlushWaitsForInFlightBackgroundFlush is the regression test for the
// Flush/linger-tick delivery race: a record enqueued before Flush() is
// claimed by the background flusher, whose produce we hold open on the
// broker. Flush must not return while that delivery is in flight — the old
// implementation saw an empty buffer and returned immediately, breaking
// the "synchronously delivers everything buffered so far" contract.
func TestFlushWaitsForInFlightBackgroundFlush(t *testing.T) {
	f := startFakeBroker(t)
	_, p := newRaceProducer(t, f)

	if err := p.Send(Message{Topic: "t", Value: []byte("v")}); err != nil {
		t.Fatalf("send: %v", err)
	}
	// The background flush has claimed the record and is now blocked in
	// its produce round trip on the broker.
	select {
	case <-f.produceStarted:
	case <-time.After(10 * time.Second):
		t.Fatal("background flush never reached the broker")
	}

	flushed := make(chan error, 1)
	go func() { flushed <- p.Flush() }()

	// Flush must still be waiting: the claimed record is not delivered.
	select {
	case err := <-flushed:
		t.Fatalf("Flush returned (err=%v) while the claimed record was undelivered", err)
	case <-time.After(100 * time.Millisecond):
	}
	if got := f.produced.Load(); got != 0 {
		t.Fatalf("broker acked %d records before release", got)
	}

	close(f.releaseProduce)
	select {
	case err := <-flushed:
		if err != nil {
			t.Fatalf("Flush: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Flush never returned after delivery completed")
	}
	if got := f.produced.Load(); got != 1 {
		t.Fatalf("broker acked %d records, want 1", got)
	}
}

// TestCloseWaitsForInFlightBackgroundFlush pins the same guarantee for
// Close, which inherited the race.
func TestCloseWaitsForInFlightBackgroundFlush(t *testing.T) {
	f := startFakeBroker(t)
	_, p := newRaceProducer(t, f)

	if err := p.Send(Message{Topic: "t", Value: []byte("v")}); err != nil {
		t.Fatalf("send: %v", err)
	}
	select {
	case <-f.produceStarted:
	case <-time.After(10 * time.Second):
		t.Fatal("background flush never reached the broker")
	}

	closed := make(chan error, 1)
	go func() { closed <- p.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (err=%v) while the claimed record was undelivered", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(f.releaseProduce)
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close never returned after delivery completed")
	}
	if got := f.produced.Load(); got != 1 {
		t.Fatalf("broker acked %d records, want 1", got)
	}
}

// TestFlushWaitsForBatchAwaitingRetry pins the retry half of the Flush
// contract: a batch whose first delivery attempt failed with a retriable
// error is still owed to Flush — it is in the client's retry loop, not
// delivered, and Flush returning early would let the app drop it on exit.
// The fake broker fails the first produce attempt with not-leader and holds
// the retry attempt open; Flush must block until the retry completes.
func TestFlushWaitsForBatchAwaitingRetry(t *testing.T) {
	f := startFakeBroker(t)
	f.failProduces.Store(1)
	_, p := newRaceProducer(t, f)

	if err := p.Send(Message{Topic: "t", Value: []byte("v")}); err != nil {
		t.Fatalf("send: %v", err)
	}
	// Attempt 1 fails fast with not-leader; attempt 2 (the retry of the
	// same stamped batch) blocks on the broker.
	for attempt := 0; attempt < 2; attempt++ {
		select {
		case <-f.produceStarted:
		case <-time.After(10 * time.Second):
			t.Fatalf("produce attempt %d never reached the broker", attempt+1)
		}
	}

	flushed := make(chan error, 1)
	go func() { flushed <- p.Flush() }()

	// Flush must still be waiting: the batch is mid-retry, not delivered.
	select {
	case err := <-flushed:
		t.Fatalf("Flush returned (err=%v) while the batch was awaiting retry", err)
	case <-time.After(100 * time.Millisecond):
	}
	if got := f.produced.Load(); got != 0 {
		t.Fatalf("broker acked %d records before release", got)
	}

	close(f.releaseProduce)
	select {
	case err := <-flushed:
		if err != nil {
			t.Fatalf("Flush: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Flush never returned after the retry completed")
	}
	if got := f.produced.Load(); got != 1 {
		t.Fatalf("broker acked %d records, want 1", got)
	}
}

// TestProducerHonorsThrottle verifies the client half of quota
// backpressure: a ThrottleTimeMs verdict on a produce response delays the
// next produce and is visible in Throttled().
func TestProducerHonorsThrottle(t *testing.T) {
	f := startFakeBroker(t)
	close(f.releaseProduce) // responses flow freely in this test
	c, err := New(Config{Bootstrap: []string{f.addr}, MetadataTTL: time.Hour})
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	defer c.Close()
	p := NewProducer(c, ProducerConfig{})
	defer p.Close()

	// Swap the fake broker to a throttling one is overkill; instead feed
	// the verdict directly and observe the pacing produce applies.
	p.noteThrottle(50)
	if st := p.Throttled(); st.Count != 1 {
		t.Fatalf("Throttled() = %+v, want Count 1", st)
	}
	start := time.Now()
	if _, err := p.SendSync(Message{Topic: "t", Value: []byte("v")}); err != nil {
		t.Fatalf("send: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 45*time.Millisecond {
		t.Fatalf("produce did not honor the throttle: took %v, want >= ~50ms", elapsed)
	}
	// Delay records the wall-clock wait actually honored.
	if st := p.Throttled(); st.Delay < 45*time.Millisecond {
		t.Fatalf("Throttled() = %+v, want Delay >= ~50ms", st)
	}
}

// TestUnpacedSendOverMaxFrameDeliversEverything: when records are buffered
// faster than they are flushed, one partition's drain can hold more than a
// frame's worth. The flush must split it into requests under
// wire.MaxFrameSize: every record is delivered and none reaches OnError.
func TestUnpacedSendOverMaxFrameDeliversEverything(t *testing.T) {
	f := startFakeBroker(t)
	close(f.releaseProduce)
	c, err := New(Config{Bootstrap: []string{f.addr}, MetadataTTL: time.Hour})
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	t.Cleanup(c.Close)
	var failed atomic.Int64
	p := NewProducer(c, ProducerConfig{
		BatchBytes: 1 << 30,   // no size-triggered flush: one drain takes everything
		Linger:     time.Hour, // nor a linger tick
		OnError:    func(Message, error) { failed.Add(1) },
	})
	value := make([]byte, 64<<10)
	n := wire.MaxFrameSize/len(value) + 64 // 68 MiB of values
	for i := 0; i < n; i++ {
		if err := p.Send(Message{Topic: "t", Value: value}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if got := f.records.Load(); got != int64(n) {
		t.Fatalf("broker received %d records, want %d", got, n)
	}
	if got := failed.Load(); got != 0 {
		t.Fatalf("OnError called for %d records, want 0", got)
	}
	if got := f.produced.Load(); got < 2 {
		t.Fatalf("%d produce requests carried %d MiB, want it split", got, n*len(value)>>20)
	}
}

// TestFrameRunsKeepsFittingDrainWhole: a drain under the frame limit goes
// out as the one request it always was.
func TestFrameRunsKeepsFittingDrainWhole(t *testing.T) {
	recs := make([]record.Record, 1000)
	for i := range recs {
		recs[i].Value = make([]byte, 1024)
	}
	if runs := frameRuns(recs); len(runs) != 1 || len(runs[0]) != len(recs) {
		t.Fatalf("frameRuns split a 1 MiB drain into %d runs", len(runs))
	}
}
