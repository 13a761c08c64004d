package obs

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the bucket count of the log-bucketed histogram: bucket
// i holds samples whose nanosecond value has bit length i+1, i.e. the
// range [2^i, 2^(i+1)), with bucket 0 also catching zero. 64 buckets
// cover every possible time.Duration.
const histBuckets = 64

// Histogram is a log-bucketed latency histogram, safe for concurrent
// Record from many workers. Recording is two atomic adds and an atomic
// max — cheap enough for per-request accounting on the serving path.
// Read it by taking a Snapshot; snapshots merge across workers,
// sessions and tenants.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64
	max    atomic.Int64
}

// bucketOf maps a duration to its bucket index.
func bucketOf(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	return bits.Len64(uint64(d)) - 1
}

// bucketUpper is the exclusive upper bound of bucket i in nanoseconds.
func bucketUpper(i int) int64 {
	if i >= 62 {
		return int64(^uint64(0) >> 1)
	}
	return int64(1) << (i + 1)
}

// Record adds one sample.
func (h *Histogram) Record(d time.Duration) {
	if h == nil {
		return
	}
	h.counts[bucketOf(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
	for {
		old := h.max.Load()
		if int64(d) <= old || h.max.CompareAndSwap(old, int64(d)) {
			return
		}
	}
}

// Snapshot captures the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Count = h.count.Load()
	s.SumNS = h.sum.Load()
	s.MaxNS = h.max.Load()
	return s
}

// HistSnapshot is an immutable histogram state: a value that travels in
// reports and merges across sources.
type HistSnapshot struct {
	// Counts[i] is how many samples fell in [2^i, 2^(i+1)) ns.
	Counts [histBuckets]uint64 `json:"counts"`
	// Count is the total sample count, SumNS and MaxNS the nanosecond
	// sum and maximum.
	Count uint64 `json:"count"`
	SumNS int64  `json:"sum_ns"`
	MaxNS int64  `json:"max_ns"`
}

// add records one sample: Histogram.Record without the atomics, for a
// snapshot one goroutine builds.
func (s *HistSnapshot) add(d time.Duration) {
	s.Counts[bucketOf(d)]++
	s.Count++
	s.SumNS += int64(d)
	s.MaxNS = max(s.MaxNS, int64(d))
}

// Merge folds another snapshot into this one and returns the result.
func (s HistSnapshot) Merge(o HistSnapshot) HistSnapshot {
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Count += o.Count
	s.SumNS += o.SumNS
	if o.MaxNS > s.MaxNS {
		s.MaxNS = o.MaxNS
	}
	return s
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear
// interpolation within the containing bucket, clamped to the recorded
// maximum. Deterministic for a given snapshot.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var seen float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo := 0.0 // bucket i covers [2^i, 2^(i+1)) ns; bucket 0 starts at 0
			if i > 0 {
				lo = float64(int64(1) << i)
			}
			hi := float64(bucketUpper(i))
			frac := (rank - seen) / float64(c)
			est := lo + frac*(hi-lo)
			if est > float64(s.MaxNS) && s.MaxNS > 0 {
				est = float64(s.MaxNS)
			}
			return time.Duration(est)
		}
		seen += float64(c)
	}
	return time.Duration(s.MaxNS)
}

// P50, P90 and P99 are the quantiles the serving experiments report.
func (s HistSnapshot) P50() time.Duration { return s.Quantile(0.50) }
func (s HistSnapshot) P90() time.Duration { return s.Quantile(0.90) }
func (s HistSnapshot) P99() time.Duration { return s.Quantile(0.99) }

// Max returns the recorded maximum.
func (s HistSnapshot) Max() time.Duration { return time.Duration(s.MaxNS) }

// Mean returns the arithmetic mean.
func (s HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNS / int64(s.Count))
}

// String renders the headline quantiles compactly.
func (s HistSnapshot) String() string {
	return fmt.Sprintf("n=%d p50=%v p90=%v p99=%v max=%v",
		s.Count, s.P50(), s.P90(), s.P99(), s.Max())
}

// LabelLatency pairs one task label (kind) with its latency histograms:
// Total is create→commit (what a caller waits), Exec the processor-held
// span alone.
type LabelLatency struct {
	Label string       `json:"label"`
	Total HistSnapshot `json:"total"`
	Exec  HistSnapshot `json:"exec"`
}
