package profile

import (
	"math/bits"
	"sync/atomic"
)

// histBuckets is the fixed bucket count of a Histogram: bucket i holds
// values whose bit length is i, so bucket boundaries are powers of two
// and the full int64 range is covered without configuration.
const histBuckets = 65

// Histogram is a log-bucketed (HDR-style) latency histogram: recording a
// value increments the bucket indexed by its bit length, so bucket i
// covers [2^(i-1), 2^i) nanoseconds and relative error is bounded by 2×
// at any scale. All counters are atomic — Record is lock-free and safe
// from the recording goroutine while any number of goroutines snapshot,
// quantile, or render it (the /metrics scrape path) — and the bucket
// array is fixed, so a Histogram never allocates after construction.
//
// The zero Histogram is ready to use.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	sum    atomic.Int64
	count  atomic.Int64
}

// bucketOf maps a value to its bucket index (negative values clamp to
// bucket 0, the same bucket as 0).
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// BucketBound returns the inclusive upper bound of bucket i (0 for
// bucket 0, 2^i − 1 otherwise; the last bucket is unbounded and reports
// the maximum int64).
func BucketBound(i int) int64 {
	switch {
	case i <= 0:
		return 0
	case i >= 63:
		return 1<<63 - 1
	default:
		return 1<<uint(i) - 1
	}
}

// Record folds one value (a duration in nanoseconds, or any non-negative
// magnitude) into the histogram.
func (h *Histogram) Record(v int64) {
	h.counts[bucketOf(v)].Add(1)
	if v > 0 {
		h.sum.Add(v)
	}
	h.count.Add(1)
}

// Count returns the number of recorded values.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of recorded values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Quantile returns an upper bound for the q-quantile (0 < q ≤ 1) of the
// recorded values: the bound of the bucket in which the nearest-rank
// value falls. Within-bucket position is unknown, so the estimate is
// exact to within the 2× bucket resolution. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.counts[i].Load()
		if cum >= rank {
			return BucketBound(i)
		}
	}
	return BucketBound(histBuckets - 1)
}

// Snapshot is a point-in-time copy of a histogram's counters, safe to
// iterate without further synchronization.
type Snapshot struct {
	Counts [histBuckets]int64
	Sum    int64
	Count  int64
}

// Snapshot copies the current counters. Buckets are read individually
// (not under one lock), so a snapshot taken while recording is a
// near-point-in-time view — fine for scrapes; totals reconcile once
// recording stops.
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	for i := 0; i < histBuckets; i++ {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Sum = h.sum.Load()
	s.Count = h.count.Load()
	return s
}

// MaxBucket returns the highest bucket index holding any count in the
// snapshot (-1 when empty); exposition trims trailing empty buckets
// with it.
func (s *Snapshot) MaxBucket() int {
	for i := histBuckets - 1; i >= 0; i-- {
		if s.Counts[i] > 0 {
			return i
		}
	}
	return -1
}
