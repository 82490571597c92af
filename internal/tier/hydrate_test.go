package tier

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/archive"
	"repro/internal/dfs"
	"repro/internal/storage/log"
	"repro/internal/storage/record"
)

// referenceSegReader hydrates records the straightforward way: cut batches
// with the cold batching rule and concatenate record.EncodeBatch of each.
// buildSegReader must produce exactly these bytes and this index.
func referenceSegReader(recs []archive.Record) ([]byte, []batchIdx) {
	var data []byte
	var index []batchIdx
	var batch []record.Record
	var first int64
	budget := 0
	flush := func() {
		if len(batch) == 0 {
			return
		}
		pos := len(data)
		data = append(data, record.EncodeBatch(first, batch)...)
		index = append(index, batchIdx{
			firstOffset: first,
			lastOffset:  first + int64(len(batch)) - 1,
			pos:         pos,
			length:      len(data) - pos,
		})
		batch, budget = batch[:0], 0
	}
	for _, a := range recs {
		if len(batch) > 0 && a.Offset != first+int64(len(batch)) {
			flush()
		}
		if len(batch) == 0 {
			first = a.Offset
		}
		batch = append(batch, record.Record{Timestamp: a.Timestamp, Key: a.Key, Value: a.Value, Headers: a.Headers})
		budget += len(a.Key) + len(a.Value) + 64
		if budget >= coldBatchBytes {
			flush()
		}
	}
	flush()
	return data, index
}

// randomColdRecords builds n records with offset gaps, nil and empty keys,
// headers, and values from a few bytes up to past coldBatchBytes.
func randomColdRecords(rng *rand.Rand, n int) []archive.Record {
	recs := make([]archive.Record, n)
	off := rng.Int63n(1000)
	for i := range recs {
		if rng.Intn(8) == 0 {
			off += 1 + rng.Int63n(5) // offset gap
		}
		a := archive.Record{Offset: off, Timestamp: 1_000_000 + int64(i)*3 - rng.Int63n(5)}
		switch rng.Intn(4) {
		case 0: // nil key
		case 1:
			a.Key = []byte{}
		default:
			a.Key = []byte(fmt.Sprintf("k-%d", rng.Intn(100)))
		}
		size := rng.Intn(512)
		switch rng.Intn(16) {
		case 0:
			size = coldBatchBytes + rng.Intn(1024) // one record closes a batch
		case 1, 2:
			size = 4 << 10
		}
		a.Value = make([]byte, size)
		rng.Read(a.Value)
		for h := rng.Intn(3); h > 0; h-- {
			a.Headers = append(a.Headers, record.Header{Key: fmt.Sprintf("h%d", h), Value: []byte{byte(h)}})
		}
		recs[i] = a
		off++
	}
	return recs
}

func TestHydrationMatchesReferenceEncoding(t *testing.T) {
	// First a segment whose records each bring a batch to exactly
	// coldBatchBytes (1-byte key, +64 per record), then random ones.
	exact := make([]archive.Record, 5)
	for i := range exact {
		exact[i] = archive.Record{Offset: int64(i), Key: []byte("k"), Value: make([]byte, coldBatchBytes-65)}
	}
	segs := [][]archive.Record{exact}
	rng := rand.New(rand.NewSource(1))
	for len(segs) < 60 {
		segs = append(segs, randomColdRecords(rng, 1+rng.Intn(120)))
	}
	for seg, recs := range segs {
		raw, err := archive.EncodeSegmentCodec(recs, record.CodecFlate)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := archive.DecodeSegment(raw)
		if err != nil {
			t.Fatal(err)
		}
		r, err := buildSegReader(SegmentInfo{Path: "seg"}, decoded)
		if err != nil {
			t.Fatal(err)
		}
		wantData, wantIndex := referenceSegReader(recs)
		if !bytes.Equal(r.data, wantData) {
			t.Fatalf("segment %d: hydrated %d bytes differ from the %d-byte reference", seg, len(r.data), len(wantData))
		}
		if len(r.data) != cap(r.data) {
			t.Fatalf("segment %d: data cap %d, want exactly %d", seg, cap(r.data), len(r.data))
		}
		if fmt.Sprint(r.index) != fmt.Sprint(wantIndex) {
			t.Fatalf("segment %d: index %v, want %v", seg, r.index, wantIndex)
		}
		if r.base != recs[0].Offset || r.last != recs[len(recs)-1].Offset {
			t.Fatalf("segment %d: range [%d,%d], want [%d,%d]", seg, r.base, r.last, recs[0].Offset, recs[len(recs)-1].Offset)
		}
	}
}

// uniformColdRecords builds n gapless records of valueBytes random bytes.
func uniformColdRecords(n, valueBytes int) []archive.Record {
	rng := rand.New(rand.NewSource(int64(n)))
	recs := make([]archive.Record, n)
	for i := range recs {
		v := make([]byte, valueBytes)
		rng.Read(v)
		recs[i] = archive.Record{Offset: int64(i), Timestamp: int64(1000 + i), Key: []byte(fmt.Sprintf("k-%d", i)), Value: v}
	}
	return recs
}

func TestHydrationAllocationsIndependentOfBatchCount(t *testing.T) {
	// 1 KiB values: ~30 records per cold batch, so these segments hold
	// about 4 and 64 batches.
	allocs := func(records int) float64 {
		recs := uniformColdRecords(records, 1<<10)
		return testing.AllocsPerRun(20, func() {
			if _, err := buildSegReader(SegmentInfo{Path: "seg"}, recs); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(120), allocs(1920)
	// The reader, its bytes, its index and the batch scratch.
	if few > 4 || many > 4 {
		t.Fatalf("hydration allocates %.0f (4 batches) and %.0f (64 batches) times, want at most 4 each", few, many)
	}
}

func TestOffsetForTimestampMiddleBatch(t *testing.T) {
	// 4 KiB values in one 128 KiB sealed segment: its cold reader holds
	// several batches of about eight records each.
	l, err := log.Open(t.TempDir(), log.Config{SegmentBytes: 128 << 10, Tiered: true, RetentionMs: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const base = int64(1_700_000_000_000)
	for i := 0; i < 40; i++ {
		if _, err := l.Append([]record.Record{{
			Timestamp: base + int64(i)*1000,
			Value:     bytes.Repeat([]byte{byte(i)}, 4<<10),
		}}); err != nil {
			t.Fatal(err)
		}
	}
	p, err := Open(openTestFS(t), "feed", 0, Config{}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Offload(l, l.NextOffset()); err != nil {
		t.Fatal(err)
	}
	man := p.manifest()
	if len(man.Segments) == 0 {
		t.Fatal("nothing offloaded")
	}
	r, err := p.hydrate(man.Segments[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(r.index) < 3 {
		t.Fatalf("cold segment has %d batches, want at least 3", len(r.index))
	}
	mid := r.index[len(r.index)/2]
	for _, c := range []struct {
		ts   int64
		want int64
	}{
		{base + mid.firstOffset*1000, mid.firstOffset},               // a middle batch's first record
		{base + (mid.firstOffset+1)*1000 - 500, mid.firstOffset + 1}, // between two records
		{base + mid.lastOffset*1000, mid.lastOffset},                 // a middle batch's last record
		{base - 1, 0}, // before everything: the first record
	} {
		off, ok, err := p.OffsetForTimestamp(c.ts)
		if err != nil || !ok || off != c.want {
			t.Fatalf("OffsetForTimestamp(%d) = %d,%v,%v; want %d,true,nil", c.ts, off, ok, err, c.want)
		}
	}
}

// BenchmarkColdHydrate hydrates a 4 MiB segment of incompressible values
// from the DFS on every iteration: chunked read, inflate, decode and the
// re-encode into wire batches.
func BenchmarkColdHydrate(b *testing.B) {
	fs, err := dfs.Open(dfs.Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer fs.Close()
	recs := uniformColdRecords(4<<10, 1<<10)
	raw, err := archive.EncodeSegmentCodec(recs, record.CodecFlate)
	if err != nil {
		b.Fatal(err)
	}
	info := SegmentInfo{Path: "/bench/seg"}
	if err := fs.WriteFile(info.Path, raw); err != nil {
		b.Fatal(err)
	}
	p, err := Open(fs, "bench", 0, Config{}, nil, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.cache.invalidate(info.Path)
		if _, err := p.hydrate(info); err != nil {
			b.Fatal(err)
		}
	}
}
