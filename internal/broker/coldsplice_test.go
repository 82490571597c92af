package broker

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/dfs"
	"repro/internal/metrics"
	"repro/internal/storage/log"
	"repro/internal/storage/record"
	"repro/internal/tier"
	"repro/internal/wire"
)

func TestColdFetchSplicesTierBytes(t *testing.T) {
	// A tiered partition whose early segments live only on the cold tier.
	l, err := log.Open(t.TempDir(), log.Config{SegmentBytes: 4 << 10, Tiered: true, RetentionMs: -1, RetentionBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := newReplica(tp{topic: "zc", partition: 0}, l, 1)
	defer r.close()
	r.becomeLeader(1, []int32{1}, []int32{1}, 1)
	for i := 0; i < 400; i++ {
		rec := record.Record{Key: []byte(fmt.Sprintf("k-%05d", i)), Value: []byte(fmt.Sprintf("v-%05d", i))}
		if _, _, _, code := r.appendAsLeader([]record.Record{rec}, 1); code != wire.ErrNone {
			t.Fatalf("append %d: %v", i, code)
		}
	}
	fs, err := dfs.Open(dfs.Config{Dir: filepath.Join(t.TempDir(), "tierfs")})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	p, err := tier.Open(fs, "zc", 0, tier.Config{}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Offload(l, r.highWatermark()); err != nil {
		t.Fatal(err)
	}
	if _, err := l.EnforceRetention(time.Now()); err != nil {
		t.Fatal(err)
	}
	r.setTier(p)
	start := l.StartOffset()
	if start == 0 {
		t.Fatal("retention kept everything local; cold path not reachable")
	}

	reg := metrics.NewRegistry()
	b := &Broker{cfg: Config{Metrics: reg, Now: time.Now}, replicas: map[tp]*replica{r.tp: r}}
	// fetch serves one consumer fetch and returns the partition's records
	// (before the ranges are released), the byte total and the frame.
	fetch := func(offset int64, zeroCopy bool) (wire.FetchRespPartition, int, []byte) {
		t.Helper()
		req := &wire.FetchRequest{ReplicaID: -1, Topics: []wire.FetchTopic{{
			Name: "zc", Partitions: []wire.FetchPartition{{Partition: 0, Offset: offset, MaxBytes: 2048}},
		}}}
		resp, total, hasError := b.collectFetch(req, false, zeroCopy)
		got := resp.Topics[0].Partitions[0]
		if hasError {
			t.Fatalf("fetch at %d: %v", offset, got.Err)
		}
		var frame bytes.Buffer
		if err := wire.WriteResponseFrame(&frame, 7, resp); err != nil {
			t.Fatal(err)
		}
		closeFetchRanges(resp)
		return got, total, frame.Bytes()
	}
	spliceBytes := func() int64 { return reg.Counter("broker.fetch.splice.bytes").Value() }

	// Cold: the zero-copy fetch splices the tier's bytes, frame-identical to
	// the buffered response, and they are not counted as sendfile bytes.
	buffered, _, legacy := fetch(0, false)
	if buffered.RecordsRange != nil || len(buffered.Records) == 0 {
		t.Fatalf("buffered cold fetch: range %T, %d record bytes", buffered.RecordsRange, len(buffered.Records))
	}
	got, total, spliced := fetch(0, true)
	if cold, ok := got.RecordsRange.(wire.MemRange); !ok || total != len(cold) || !bytes.Equal(cold, buffered.Records) {
		t.Fatalf("cold zero-copy fetch: range %T, total %d, want the %d buffered bytes in memory", got.RecordsRange, total, len(buffered.Records))
	}
	if !bytes.Equal(legacy, spliced) {
		t.Fatalf("cold frames diverge: buffered %d bytes, spliced %d bytes", len(legacy), len(spliced))
	}
	if n := spliceBytes(); n != 0 {
		t.Fatalf("cold bytes counted as %d spliced (sendfile) bytes", n)
	}

	// Hot: still a segment file range, counted as spliced.
	got, total, hotSpliced := fetch(start, true)
	if _, ok := got.RecordsRange.(*log.SegmentRange); !ok || spliceBytes() != int64(total) {
		t.Fatalf("hot zero-copy fetch: range %T, %d of %d bytes counted as spliced", got.RecordsRange, spliceBytes(), total)
	}
	if _, _, hotLegacy := fetch(start, false); !bytes.Equal(hotLegacy, hotSpliced) {
		t.Fatalf("hot frames diverge: buffered %d bytes, spliced %d bytes", len(hotLegacy), len(hotSpliced))
	}
}
