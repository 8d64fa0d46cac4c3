package stats

import (
	"math"
	"testing"
)

// sampleMean draws n variates and returns their mean.
func sampleMean(d Dist, seed uint64, n int) float64 {
	r := NewRNG(seed)
	var sum float64
	for i := 0; i < n; i++ {
		sum += d.Sample(r)
	}
	return sum / float64(n)
}

func TestDistMeansMatchAnalytic(t *testing.T) {
	cases := []struct {
		name string
		d    Dist
		tol  float64 // relative tolerance
	}{
		{"constant", Constant{Value: 42}, 0},
		{"uniform", Uniform{Lo: 2, Hi: 10}, 0.02},
		{"exponential", Exponential{Rate: 0.25}, 0.03},
		{"normal", Normal{Mu: 7, Sigma: 2}, 0.02},
		{"lognormal", LogNormal{Mu: 1, Sigma: 0.5}, 0.03},
		{"weibull-bursty", Weibull{K: 0.7, Lambda: 3}, 0.05},
		{"weibull-regular", Weibull{K: 2, Lambda: 5}, 0.03},
		{"pareto", Pareto{Xm: 1, Alpha: 3}, 0.05},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := sampleMean(c.d, 1234, 300000)
			want := c.d.Mean()
			if want == 0 {
				if got != 0 {
					t.Fatalf("mean = %g, want 0", got)
				}
				return
			}
			if rel := math.Abs(got-want) / want; rel > c.tol {
				t.Fatalf("sample mean %g vs analytic %g (rel err %.3f > %.3f)", got, want, rel, c.tol)
			}
		})
	}
}

func TestParetoInfiniteMean(t *testing.T) {
	if m := (Pareto{Xm: 1, Alpha: 0.9}).Mean(); !math.IsInf(m, 1) {
		t.Fatalf("Pareto alpha<=1 mean = %g, want +Inf", m)
	}
}

func TestTruncatedBounds(t *testing.T) {
	d := Truncated{Inner: Normal{Mu: 0, Sigma: 100}, Lo: -5, Hi: 5}
	r := NewRNG(2)
	for i := 0; i < 50000; i++ {
		v := d.Sample(r)
		if v < -5 || v > 5 {
			t.Fatalf("truncated sample %g outside [-5,5]", v)
		}
	}
}

func TestTruncatedMeanClamps(t *testing.T) {
	d := Truncated{Inner: Constant{Value: 100}, Lo: 0, Hi: 10}
	if m := d.Mean(); m != 10 {
		t.Fatalf("Mean() = %g, want clamp to 10", m)
	}
	d = Truncated{Inner: Constant{Value: -3}, Lo: 0, Hi: 10}
	if m := d.Mean(); m != 0 {
		t.Fatalf("Mean() = %g, want clamp to 0", m)
	}
}

func TestMixtureWeights(t *testing.T) {
	// 75/25 mixture of constants: empirical mean must reflect weights.
	d := Mixture{
		Weights:    []float64{3, 1},
		Components: []Dist{Constant{Value: 0}, Constant{Value: 4}},
	}
	if m := d.Mean(); m != 1 {
		t.Fatalf("analytic mixture mean = %g, want 1", m)
	}
	got := sampleMean(d, 3, 200000)
	if math.Abs(got-1) > 0.02 {
		t.Fatalf("sample mixture mean = %g, want ~1", got)
	}
}

func TestMixtureEmptyWeightsMean(t *testing.T) {
	d := Mixture{}
	if m := d.Mean(); m != 0 {
		t.Fatalf("empty mixture mean = %g, want 0", m)
	}
}

func TestZipfRange(t *testing.T) {
	z := NewZipf(9, 1.4)
	r := NewRNG(4)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		v := z.Sample(r)
		if v < 1 || v > 9 {
			t.Fatalf("Zipf sample %d outside [1,9]", v)
		}
		counts[v]++
	}
	// Monotone decreasing frequencies (allowing sampling noise at the
	// tail, so only check the strong head ordering).
	if counts[1] <= counts[2] || counts[2] <= counts[3] {
		t.Fatalf("Zipf head not decreasing: %v", counts[1:])
	}
}

func TestZipfRatio(t *testing.T) {
	// P(1)/P(2) should be ~2^s.
	const s = 1.5
	z := NewZipf(50, s)
	r := NewRNG(5)
	var c1, c2 int
	for i := 0; i < 300000; i++ {
		switch z.Sample(r) {
		case 1:
			c1++
		case 2:
			c2++
		}
	}
	want := math.Pow(2, s)
	got := float64(c1) / float64(c2)
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("P(1)/P(2) = %.3f, want ~%.3f", got, want)
	}
}

func TestZipfPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewZipf(0, 1) did not panic")
		}
	}()
	NewZipf(0, 1)
}
