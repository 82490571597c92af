package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, body
}

func TestServerEndpoints(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("broker.requests").Add(5)
	reg.HistogramFamily("broker.api.latency.ns", "api").With("produce").Observe(1000)
	sl := NewSlowLog(8, time.Minute)
	sl.Observe(SlowLogEntry{API: "fetch", Principal: "anon", Topic: "orders", Partition: 2, Duration: 50 * time.Millisecond})

	unhealthy := errors.New("boom")
	var failing error
	srv, err := Start(Config{
		Addr:     "127.0.0.1:0",
		Registry: reg,
		Health: []HealthCheck{
			{Name: "always-ok", Check: func() error { return nil }},
			{Name: "toggle", Check: func() error { return failing }},
		},
		Status:  func() any { return map[string]any{"broker": 1, "partitionsLed": 3} },
		SlowLog: sl,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	code, body := get(t, base+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	samples, err := LintExposition(body)
	if err != nil {
		t.Fatalf("exposition lint: %v\n%s", err, body)
	}
	found := false
	for _, s := range samples {
		if s.Name == "broker_requests" && s.Value == 5 {
			found = true
		}
	}
	if !found {
		t.Fatalf("broker_requests sample missing:\n%s", body)
	}

	code, body = get(t, base+"/healthz")
	if code != 200 {
		t.Fatalf("/healthz status %d: %s", code, body)
	}
	failing = unhealthy
	code, body = get(t, base+"/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(string(body), "boom") {
		t.Fatalf("/healthz with failing check: status %d body %s", code, body)
	}
	failing = nil

	code, body = get(t, base+"/status")
	if code != 200 {
		t.Fatalf("/status status %d", code)
	}
	var st map[string]any
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("/status not JSON: %v\n%s", err, body)
	}
	if st["partitionsLed"] != float64(3) {
		t.Fatalf("/status content wrong: %v", st)
	}

	code, body = get(t, base+"/debug/slowlog")
	if code != 200 {
		t.Fatalf("/debug/slowlog status %d", code)
	}
	var entries []SlowLogEntry
	if err := json.Unmarshal(body, &entries); err != nil || len(entries) != 1 || entries[0].API != "fetch" {
		t.Fatalf("/debug/slowlog wrong: %v %s", err, body)
	}

	code, _ = get(t, base+"/debug/pprof/")
	if code != 200 {
		t.Fatalf("/debug/pprof/ status %d", code)
	}
	code, body = get(t, base+"/debug/pprof/profile?seconds=1")
	if code != 200 || len(body) == 0 {
		t.Fatalf("/debug/pprof/profile status %d, %d bytes", code, len(body))
	}
}

func TestStartRequiresRegistry(t *testing.T) {
	if _, err := Start(Config{Addr: "127.0.0.1:0"}); err == nil {
		t.Fatal("Start without registry should fail")
	}
}

func TestSlowLogDisplacesFastest(t *testing.T) {
	sl := NewSlowLog(3, time.Hour)
	for i, d := range []time.Duration{10, 30, 20} {
		sl.Observe(SlowLogEntry{API: fmt.Sprintf("a%d", i), Duration: d * time.Millisecond})
	}
	// Faster than everything retained: dropped.
	sl.Observe(SlowLogEntry{API: "fast", Duration: 5 * time.Millisecond})
	// Slower than the current fastest: displaces it.
	sl.Observe(SlowLogEntry{API: "slow", Duration: 40 * time.Millisecond})
	got := sl.Slowest()
	if len(got) != 3 {
		t.Fatalf("retained %d entries, want 3", len(got))
	}
	if got[0].API != "slow" || got[1].Duration != 30*time.Millisecond || got[2].Duration != 20*time.Millisecond {
		t.Fatalf("wrong retention order: %+v", got)
	}
}

func TestSlowLogExpiresByAge(t *testing.T) {
	sl := NewSlowLog(8, time.Minute)
	now := time.Unix(1000, 0)
	sl.now = func() time.Time { return now }
	sl.Observe(SlowLogEntry{API: "old", Duration: time.Second})
	now = now.Add(2 * time.Minute)
	sl.Observe(SlowLogEntry{API: "new", Duration: time.Millisecond})
	got := sl.Slowest()
	if len(got) != 1 || got[0].API != "new" {
		t.Fatalf("expiry wrong: %+v", got)
	}
}

func TestLintCatchesProblems(t *testing.T) {
	cases := map[string]string{
		"empty":            "",
		"missing-type":     "no_type_metric 1\n",
		"duplicate-series": "# TYPE a counter\na 1\na 2\n",
		"nan":              "# TYPE a gauge\na NaN\n",
		"duplicate-type":   "# TYPE a counter\n# TYPE a counter\na 1\n",
		"bucket-decrease":  "# TYPE h histogram\nh_bucket{le=\"2\"} 5\nh_bucket{le=\"4\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"missing-inf":      "# TYPE h histogram\nh_bucket{le=\"2\"} 5\nh_sum 1\nh_count 5\n",
		"count-mismatch":   "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 6\n",
	}
	for name, text := range cases {
		if _, err := LintExposition([]byte(text)); err == nil {
			t.Fatalf("%s: lint accepted bad exposition:\n%s", name, text)
		}
	}
	good := "# TYPE a counter\na{x=\"1\"} 1\na{x=\"2\"} 2\n# TYPE h histogram\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 3\nh_sum 4\nh_count 3\n"
	if _, err := LintExposition([]byte(good)); err != nil {
		t.Fatalf("lint rejected good exposition: %v", err)
	}
}

func TestLintRealRegistryOutput(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("c.one").Inc()
	reg.Gauge("g.one").Set(-3)
	h := reg.Histogram("h.one")
	for i := int64(1); i < 2000; i *= 3 {
		h.Observe(i)
	}
	reg.CounterFamily("fam.api", "api", "code").With("produce", "0").Add(7)
	reg.HistogramFamily("fam.lat", "api").With("fetch").Observe(12345)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if _, err := LintExposition([]byte(b.String())); err != nil {
		t.Fatalf("real registry output fails lint: %v\n%s", err, b.String())
	}
}

func TestParseExpositionLabels(t *testing.T) {
	samples, err := ParseExposition([]byte("m{topic=\"a\\\"b\",partition=\"3\"} 42\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 1 || samples[0].Label("topic") != `a"b` || samples[0].Label("partition") != "3" || samples[0].Value != 42 {
		t.Fatalf("parse wrong: %+v", samples)
	}
}

func TestSlowLogDropsExpiredOnEveryCall(t *testing.T) {
	now := time.Unix(1000, 0)
	fresh := func() *SlowLog {
		sl := NewSlowLog(1, time.Minute)
		sl.now = func() time.Time { return now }
		sl.Observe(SlowLogEntry{API: "old", Duration: time.Second})
		now = now.Add(2 * time.Minute)
		return sl
	}
	if n := fresh().Len(); n != 0 {
		t.Fatalf("Len kept %d expired entries", n)
	}
	if got := fresh().Slowest(); len(got) != 0 {
		t.Fatalf("Slowest kept expired entries: %+v", got)
	}
	// The log is full with a slower entry: only expiring it in Observe
	// makes room for the faster newcomer.
	sl := fresh()
	sl.Observe(SlowLogEntry{API: "new", Duration: time.Millisecond})
	if got := sl.Slowest(); len(got) != 1 || got[0].API != "new" {
		t.Fatalf("Observe kept the expired entry: %+v", got)
	}
}

func TestSlowLogMatchesFullScanModel(t *testing.T) {
	// The reference: expire and scan for the fastest entry on every call.
	const capacity, window = 8, time.Minute
	var model []SlowLogEntry
	observe := func(e SlowLogEntry, now time.Time) {
		kept := model[:0]
		for _, m := range model {
			if m.At.After(now.Add(-window)) {
				kept = append(kept, m)
			}
		}
		model = kept
		if len(model) < capacity {
			model = append(model, e)
			return
		}
		minIdx := 0
		for i := range model {
			if model[i].Duration < model[minIdx].Duration {
				minIdx = i
			}
		}
		if e.Duration > model[minIdx].Duration {
			model[minIdx] = e
		}
	}
	rng := rand.New(rand.NewSource(1))
	now := time.Unix(1000, 0)
	sl := NewSlowLog(capacity, window)
	sl.now = func() time.Time { return now }
	for i := 0; i < 5000; i++ {
		now = now.Add(time.Duration(rng.Intn(4000)) * time.Millisecond)
		e := SlowLogEntry{API: fmt.Sprint(i), Duration: time.Duration(rng.Intn(20)) * time.Millisecond, At: now}
		if rng.Intn(4) == 0 {
			e.At = now.Add(-time.Duration(rng.Intn(90)) * time.Second) // caller-stamped, maybe stale
		}
		sl.Observe(e)
		observe(e, now)
		if fmt.Sprint(sl.entries) != fmt.Sprint(model) {
			t.Fatalf("observation %d: log %v, model %v", i, sl.entries, model)
		}
	}
}
