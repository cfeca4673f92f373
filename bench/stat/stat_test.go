package stat

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestSummarizeMatchesPythonExclusiveQuartiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	var v []float64
	for i := 1; i <= 10; i++ {
		v = append(v, float64(i))
	}
	s := Summarize(v)
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", s.Q1, s.Median, s.Q3)
	}
	if got := s.IQRShare(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("IQRShare = %v, want 1", got)
	}
}

func TestHistQuantileWithinResolution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var h Hist
	var exact []float64
	for i := 0; i < 200000; i++ {
		v := int64(math.Exp(rng.Float64()*18)) + 1 // 1ns .. ~65ms, log-uniform
		h.Add(v)
		exact = append(exact, float64(v))
	}
	sort.Float64s(exact)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := Quantile(exact, q)
		got := h.Quantile(q)
		if math.Abs(got-want)/want > 0.02 {
			t.Errorf("q%.3f = %.0f, exact %.0f (off by more than 2%%)", q, got, want)
		}
	}
	if h.Max() != exact[len(exact)-1] {
		t.Errorf("max = %v, want %v", h.Max(), exact[len(exact)-1])
	}
}

func TestHistBucketBoundsRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 63, 64, 65, 127, 128, 1000, 1 << 20, 1<<40 + 12345} {
		b := bucketOf(v)
		lo, w := lowerBound(b)
		if float64(v) < lo || float64(v) >= lo+w {
			t.Errorf("v=%d in bucket %d with range [%v,%v)", v, b, lo, lo+w)
		}
	}
}
