package profile

import (
	"sync"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {1 << 40, 41}, {1<<63 - 1, 63},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.bucket)
		}
		if b := BucketBound(bucketOf(c.v)); c.v > 0 && b < c.v {
			t.Errorf("BucketBound(bucketOf(%d)) = %d below the value", c.v, b)
		}
	}
	if BucketBound(0) != 0 {
		t.Errorf("BucketBound(0) = %d, want 0", BucketBound(0))
	}
	if BucketBound(histBuckets-1) != 1<<63-1 {
		t.Errorf("last bucket bound = %d, want MaxInt64", BucketBound(histBuckets-1))
	}
}

func TestHistogramRecordAndStats(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("zero histogram should report all zeros")
	}
	for _, v := range []int64{100, 200, 300, 400, 1000} {
		h.Record(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	if h.Sum() != 2000 {
		t.Fatalf("Sum = %d, want 2000", h.Sum())
	}
}

func TestHistogramQuantileBounds(t *testing.T) {
	var h Histogram
	// 90 values near 100ns, 10 near 10000ns: p50 must bound 100, p99
	// must bound 10000, and both must stay within 2x (one bucket).
	for i := 0; i < 90; i++ {
		h.Record(100)
	}
	for i := 0; i < 10; i++ {
		h.Record(10000)
	}
	if p50 := h.Quantile(0.50); p50 < 100 || p50 >= 256 {
		t.Errorf("p50 = %d, want in [100, 256)", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 10000 || p99 >= 32768 {
		t.Errorf("p99 = %d, want in [10000, 32768)", p99)
	}
	if q1 := h.Quantile(1.0); q1 < 10000 {
		t.Errorf("p100 = %d, want >= 10000", q1)
	}
}

func TestHistogramSnapshot(t *testing.T) {
	var h Histogram
	if s := h.Snapshot(); s.MaxBucket() != -1 {
		t.Errorf("empty MaxBucket = %d, want -1", s.MaxBucket())
	}
	h.Record(0)
	h.Record(5)
	h.Record(1 << 20)
	s := h.Snapshot()
	if s.Count != 3 || s.Sum != 5+1<<20 {
		t.Fatalf("snapshot count=%d sum=%d", s.Count, s.Sum)
	}
	if s.MaxBucket() != 21 {
		t.Errorf("MaxBucket = %d, want 21", s.MaxBucket())
	}
	var total int64
	for _, c := range s.Counts {
		total += c
	}
	if total != 3 {
		t.Errorf("bucket counts total %d, want 3", total)
	}
}

// TestHistogramConcurrentRecordAndRead exercises the lock-free contract:
// many recorders racing with snapshot/quantile readers (the /metrics
// scrape path) must neither race nor lose counts.
func TestHistogramConcurrentRecordAndRead(t *testing.T) {
	var h Histogram
	const writers, perWriter = 8, 1000
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() { // concurrent reader, like a scrape
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				h.Snapshot()
				h.Quantile(0.95)
				h.Sum()
				h.Count()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Record(int64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if h.Count() != writers*perWriter {
		t.Fatalf("Count = %d, want %d", h.Count(), writers*perWriter)
	}
}

func TestHistogramAllocs(t *testing.T) {
	var h Histogram
	allocs := testing.AllocsPerRun(100, func() {
		h.Record(12345)
		_ = h.Quantile(0.99)
		_ = h.Sum()
		_ = h.Count()
	})
	if allocs != 0 {
		t.Fatalf("Record/Quantile/Sum/Count allocated %.1f/op, want 0", allocs)
	}
}
