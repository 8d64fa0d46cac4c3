package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPercentileKnownValues(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 10}, {50, 5.5}, {25, 3.25}, {75, 7.75},
		{-3, 1}, {250, 10}, // clamped
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("P%g = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestPercentileEmpty(t *testing.T) {
	if Percentile(nil, 50) != 0 {
		t.Fatal("P50 of empty slice must be 0")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestPercentilesConsistentWithSingle(t *testing.T) {
	check := func(raw []int8) bool {
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		ps := []float64{5, 25, 50, 75, 95}
		batch := Percentiles(xs, ps...)
		for i, p := range ps {
			if batch[i] != Percentile(xs, p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileMonotone(t *testing.T) {
	check := func(raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := Percentile(xs, p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	// Tied ranks broke the weighted interpolation: P10 of this input
	// came out as -127.00000000000001, below P5.
	if !check([]int8{-127, -127, 70}) {
		t.Fatal("percentiles of [-127 -127 70] decrease in p")
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
