package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "jobs", Labels{"status": "done"})
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	// Same (name, labels) returns the same instrument.
	if again := r.Counter("jobs_total", "jobs", Labels{"status": "done"}); again != c {
		t.Fatal("re-registration returned a different counter")
	}
	// Different labels is a different series.
	if other := r.Counter("jobs_total", "jobs", Labels{"status": "failed"}); other == c {
		t.Fatal("distinct labels shared a counter")
	}
	g := r.Gauge("depth", "queue depth", nil)
	g.Set(7)
	g.Add(-3)
	if g.Value() != 4 {
		t.Fatalf("gauge = %d, want 4", g.Value())
	}
	fg := r.FloatGauge("imbalance", "x", nil)
	fg.Set(1.25)
	if fg.Value() != 1.25 {
		t.Fatalf("float gauge = %g, want 1.25", fg.Value())
	}
}

func TestNegativeCounterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	(&Counter{}).Add(-1)
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("x", "", nil)
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0},
		{1e-9, 0},
		{1e-6, 0},
		{1.0000001e-6, 1},
		{2e-6, 1},
		{1e-3, 10}, // 1e-6·2^10 = 1.024e-3 ≥ 1e-3 > 1e-6·2^9
		{1, 20},    // 1e-6·2^20 ≈ 1.049 ≥ 1 > 2^19·1e-6
		{1e9, HistogramBuckets},
		{math.Inf(1), HistogramBuckets},
	}
	for _, tc := range cases {
		if got := bucketFor(tc.v); got != tc.want {
			t.Errorf("bucketFor(%g) = %d, want %d", tc.v, got, tc.want)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := &Histogram{}
	if q := h.Quantile(50); q != 0 {
		t.Fatalf("empty histogram p50 = %g, want 0", q)
	}
	// 100 observations spread over two buckets: 50 at ~1µs, 50 at ~1s.
	for i := 0; i < 50; i++ {
		h.Observe(1e-6)
		h.Observe(1.0)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	if got := h.Quantile(50); got != bucketBound(0) {
		t.Fatalf("p50 = %g, want %g", got, bucketBound(0))
	}
	if got := h.Quantile(99); got != bucketBound(20) {
		t.Fatalf("p99 = %g, want %g", got, bucketBound(20))
	}
	// Overflow samples resolve to the largest finite bound.
	h2 := &Histogram{}
	h2.Observe(1e9)
	if got := h2.Quantile(50); got != bucketBound(HistogramBuckets-1) {
		t.Fatalf("overflow p50 = %g, want %g", got, bucketBound(HistogramBuckets-1))
	}
}

func TestHistogramSum(t *testing.T) {
	h := &Histogram{}
	h.Observe(0.5)
	h.Observe(0.25)
	if s := h.Sum(); math.Abs(s-0.75) > 1e-12 {
		t.Fatalf("sum = %g, want 0.75", s)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("distcolor_jobs_total", "Jobs by terminal status.", Labels{"status": "done"}).Add(3)
	r.Counter("distcolor_jobs_total", "Jobs by terminal status.", Labels{"status": "failed"}).Add(1)
	r.Gauge("distcolor_queue_depth", "Scheduler queue depth.", nil).Set(2)
	r.GaugeFunc("distcolor_ratio", "A computed ratio.", nil, func() float64 { return 0.5 })
	h := r.Histogram("distcolor_http_request_seconds", "Latency.", Labels{"endpoint": "stats"})
	h.Observe(2e-6)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP distcolor_jobs_total Jobs by terminal status.\n",
		"# TYPE distcolor_jobs_total counter\n",
		`distcolor_jobs_total{status="done"} 3` + "\n",
		`distcolor_jobs_total{status="failed"} 1` + "\n",
		"# TYPE distcolor_queue_depth gauge\n",
		"distcolor_queue_depth 2\n",
		"distcolor_ratio 0.5\n",
		"# TYPE distcolor_http_request_seconds histogram\n",
		`distcolor_http_request_seconds_bucket{endpoint="stats",le="1e-06"} 0` + "\n",
		`distcolor_http_request_seconds_bucket{endpoint="stats",le="2e-06"} 1` + "\n",
		`distcolor_http_request_seconds_bucket{endpoint="stats",le="+Inf"} 1` + "\n",
		`distcolor_http_request_seconds_count{endpoint="stats"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n--- got ---\n%s", want, out)
		}
	}
	// Families are sorted by name: http before jobs before queue.
	if !(strings.Index(out, "distcolor_http_request_seconds") < strings.Index(out, "distcolor_jobs_total") &&
		strings.Index(out, "distcolor_jobs_total") < strings.Index(out, "distcolor_queue_depth")) {
		t.Errorf("families not sorted by name:\n%s", out)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "h", Labels{"k": "a\"b\\c\nd"}).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `m{k="a\"b\\c\nd"} 1` + "\n"
	if !strings.Contains(b.String(), want) {
		t.Fatalf("escaped line %q missing from:\n%s", want, b.String())
	}
}

// TestConcurrentObserve exercises every instrument from many goroutines;
// meaningful under -race, and checks totals are not lost.
func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "", nil)
	g := r.Gauge("g", "", nil)
	h := r.Histogram("h", "", nil)
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(1e-3)
			}
		}()
	}
	// Scrape concurrently with the writers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var b strings.Builder
			_ = r.WritePrometheus(&b)
		}
	}()
	wg.Wait()
	<-done
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	if math.Abs(h.Sum()-workers*per*1e-3) > 1e-6 {
		t.Fatalf("histogram sum = %g, want %g", h.Sum(), float64(workers*per)*1e-3)
	}
}

// TestRegisterWhileScraping registers new series of existing families —
// which appends to and re-sorts their series lists and creates handles —
// while other goroutines scrape in both formats. Under -race it proves a
// scrape only walks what it copied under the registry lock.
func TestRegisterWhileScraping(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l := Labels{"k": strings.Repeat("x", (w*200+i)%17) + string(rune('a'+w))}
				r.Counter("c_total", "c", Labels{"i": l["k"], "n": string(rune('a' + i%26))}).Inc()
				r.Gauge("g", "g", l).Set(int64(i))
				r.FloatGauge("f", "f", l).Set(float64(i))
				r.Histogram("h", "h", l).Observe(float64(i))
				r.GaugeFunc("gf", "gf", l, func() float64 { return 1 })
			}
		}(w)
	}
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var b strings.Builder
			for i := 0; i < 50; i++ {
				b.Reset()
				var err error
				if s == 0 {
					err = r.WritePrometheus(&b)
				} else {
					err = r.WriteOpenMetrics(&b)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "# TYPE h histogram") {
		t.Fatalf("final scrape lacks the histogram family:\n%.400s", b.String())
	}
}
