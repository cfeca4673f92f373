// Package stat holds the small statistics the benchmark reports with:
// exact quantiles over retained samples, a log-linear histogram for the
// per-record latencies that are too many to retain, and the
// median/quartile summary the repeatability and compare modes use.
package stat

import (
	"math"
	"math/bits"
	"sort"
)

// Quantile returns the q-quantile (0..1) of sorted by linear
// interpolation between closest ranks; 0 for an empty slice.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// Samples retains every observation; use it where the count is small
// enough to keep (refreshes, batches, retention runs).
type Samples struct{ v []float64 }

// Add records one observation.
func (s *Samples) Add(x float64) { s.v = append(s.v, x) }

// N returns the number of observations.
func (s *Samples) N() int { return len(s.v) }

// Sum returns the total of all observations.
func (s *Samples) Sum() float64 {
	t := 0.0
	for _, x := range s.v {
		t += x
	}
	return t
}

// Mean returns the arithmetic mean (0 when empty).
func (s *Samples) Mean() float64 {
	if len(s.v) == 0 {
		return 0
	}
	return s.Sum() / float64(len(s.v))
}

// Quantile returns the q-quantile of the observations.
func (s *Samples) Quantile(q float64) float64 {
	c := append([]float64(nil), s.v...)
	sort.Float64s(c)
	return Quantile(c, q)
}

// Summary is the spread of one metric over repeated runs.
type Summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// Summarize computes the repeatability summary of values. Quartiles use
// the exclusive method of Python's statistics.quantiles(values, n=4), the
// rule the benchmark's acceptance check applies, so a spread printed here
// is the spread that check sees.
func Summarize(values []float64) Summary {
	c := append([]float64(nil), values...)
	sort.Float64s(c)
	s := Summary{N: len(c)}
	if len(c) == 0 {
		return s
	}
	s.Min, s.Max = c[0], c[len(c)-1]
	s.Median = exclusiveQuantile(c, 0.5)
	s.Q1 = exclusiveQuantile(c, 0.25)
	s.Q3 = exclusiveQuantile(c, 0.75)
	return s
}

// exclusiveQuantile interpolates at rank p*(n+1), clamped to the data.
func exclusiveQuantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := p*float64(n+1) - 1
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(n-1) {
		return sorted[n-1]
	}
	lo := int(pos)
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// IQRShare is the interquartile range as a share of the median — the
// run-to-run spread the bounds are fixed against.
func (s Summary) IQRShare() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// RangeShare is (max − min) as a share of the median.
func (s Summary) RangeShare() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Max - s.Min) / s.Median)
}

// Hist is a log-linear histogram of non-negative integer observations
// (nanoseconds here): 64 linear sub-buckets per power of two, so a
// reported quantile is within 1.6 % of the exact one at any magnitude
// while a run's millions of per-record latencies cost a fixed 32 KiB.
// Not safe for concurrent use.
type Hist struct {
	counts [64 * subBuckets]uint64
	n      uint64
	sum    float64
	max    uint64
}

const (
	subBits    = 6
	subBuckets = 1 << subBits
)

func bucketOf(v uint64) int {
	if v < subBuckets {
		return int(v)
	}
	exp := bits.Len64(v) - 1 - subBits // >= 0
	return (exp+1)<<subBits + int((v>>uint(exp))&(subBuckets-1))
}

// lowerBound is the smallest value mapping to bucket b; width its span.
func lowerBound(b int) (lo, width float64) {
	if b < subBuckets {
		return float64(b), 1
	}
	exp := b>>subBits - 1
	sub := b & (subBuckets - 1)
	w := math.Ldexp(1, exp)
	return math.Ldexp(float64(subBuckets+sub), exp), w
}

// Add records one observation; negatives count as zero.
func (h *Hist) Add(v int64) {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	h.counts[bucketOf(u)]++
	h.n++
	h.sum += float64(u)
	if u > h.max {
		h.max = u
	}
}

// N returns the number of observations.
func (h *Hist) N() uint64 { return h.n }

// Mean returns the mean observation.
func (h *Hist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Max returns the largest observation exactly.
func (h *Hist) Max() float64 { return float64(h.max) }

// Quantile returns the q-quantile, interpolated inside its bucket.
func (h *Hist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, w := lowerBound(b)
			v := lo + w*(rank-cum)/float64(c)
			return math.Min(v, float64(h.max))
		}
		cum += float64(c)
	}
	return float64(h.max)
}
