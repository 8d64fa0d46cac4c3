package stats

import (
	"math"
	"sort"
	"testing"
)

// percentileRef is the copy-and-sort Percentile that selection
// replaced, kept as its differential oracle.
func percentileRef(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo] + (s[hi]-s[lo])*frac
}

// samePercentile reports whether got is the oracle's value bit for bit,
// with NaN matching NaN. Zeros compare with ==: the sort order makes -0
// and +0 equal, so which of them sits at a rank depends on the
// algorithm, not the data. No report value can be -0 (waits are
// integer-valued, slowdown and dilation are at least 1), so the sign
// is never observed.
func samePercentile(got, want float64) bool {
	if math.IsNaN(got) || math.IsNaN(want) {
		return math.IsNaN(got) && math.IsNaN(want)
	}
	if got == 0 && want == 0 {
		return true
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// percentileClasses are the input classes percentileInput knows.
var percentileClasses = []string{"random", "ties", "all-equal", "sorted", "reverse", "organ-pipe", "nan", "inf", "signed-zero"}

// percentileInput draws one oracle input of class c and length n.
func percentileInput(rng *RNG, c string, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = (rng.Float64() - 0.3) * 1e4
	}
	switch c {
	case "ties":
		k := 1 + rng.Intn(4)
		for i := range xs {
			xs[i] = float64(rng.Intn(k))
		}
	case "all-equal":
		v := xs[0]
		for i := range xs {
			xs[i] = v
		}
	case "sorted":
		sort.Float64s(xs)
	case "reverse":
		sort.Sort(sort.Reverse(sort.Float64Slice(xs)))
	case "organ-pipe":
		for i := range xs {
			xs[i] = float64(min(i, n-1-i))
		}
	case "nan", "inf", "signed-zero":
		for i := range xs {
			if rng.Intn(4) != 0 {
				continue
			}
			switch c {
			case "nan":
				xs[i] = math.NaN()
			case "inf":
				xs[i] = math.Inf(1 - 2*rng.Intn(2))
			default:
				xs[i] = math.Copysign(0, float64(1-2*rng.Intn(2)))
			}
		}
	}
	return xs
}

// TestPercentileMatchesSortOracle requires selection to agree with the
// copy-and-sort reference on seeded random inputs of every class the
// generator knows, at the report's percentiles, the extremes and a
// random p per input. Percentiles selects every p from one reordered
// copy, as the recorder's report does from its buffer, so it must
// agree too. Coverage counters fail the test if a class, a length
// extreme or an interesting outcome stops occurring.
func TestPercentileMatchesSortOracle(t *testing.T) {
	const inputs = 10000
	classes := percentileClasses
	seen := map[string]int{}
	rng := NewRNG(20)
	for in := 0; in < inputs; in++ {
		c := classes[in%len(classes)]
		var n int
		switch in % 4 {
		case 0:
			n = 1 + rng.Intn(16)
		case 1, 2:
			n = 17 + rng.Intn(184)
		default:
			n = 201 + rng.Intn(1800)
		}
		if in%997 == 0 {
			n = 2000
		}
		xs := percentileInput(rng, c, n)
		seen["class "+c]++
		switch n {
		case 1:
			seen["n=1"]++
		case 2000:
			seen["n=2000"]++
		}
		ps := []float64{0, 5, 50, 95, 99, 100, rng.Float64() * 100}
		batch := Percentiles(xs, ps...)
		for i, p := range ps {
			want := percentileRef(xs, p)
			got := Percentile(xs, p)
			if !samePercentile(got, want) || !samePercentile(batch[i], want) {
				t.Fatalf("input %d (%s, n=%d): P%g = %v (batch %v), reference %v", in, c, n, p, got, batch[i], want)
			}
			switch {
			case math.IsNaN(want):
				seen["NaN result"]++
			case math.IsInf(want, 0):
				seen["infinite result"]++
			case want == 0 && math.Float64bits(got) != math.Float64bits(want):
				seen["zeros of opposite sign"]++
			}
		}
	}
	t.Logf("coverage: %v", seen)
	want := []string{"n=1", "n=2000", "NaN result", "infinite result", "zeros of opposite sign"}
	for _, c := range classes {
		want = append(want, "class "+c)
	}
	for _, k := range want {
		if seen[k] == 0 {
			t.Errorf("generator never produced %s", k)
		}
	}
}

// TestPercentileOfSortedMatchesSortOracle requires the two-run
// selection to agree with the copy-and-sort reference over the union
// of its runs, as a fork's report merges its checkpoint's ranked
// prefix with its own sorted tail. Each seeded input of every class is
// split into a prefix and a tail, both sorted; the split is empty, one
// value or all values on either side as often as it is random, so
// ties straddle it in the tied classes. Coverage counters fail the
// test if a kind of split or outcome stops occurring.
func TestPercentileOfSortedMatchesSortOracle(t *testing.T) {
	const inputs = 10000
	seen := map[string]int{}
	rng := NewRNG(23)
	for in := 0; in < inputs; in++ {
		c := percentileClasses[in%len(percentileClasses)]
		var n int
		switch in % 4 {
		case 0:
			n = 1 + rng.Intn(16)
		case 1, 2:
			n = 17 + rng.Intn(184)
		default:
			n = 201 + rng.Intn(1800)
		}
		xs := percentileInput(rng, c, n)
		var k int
		switch in % 7 {
		case 0:
			k = 0
		case 1:
			k = n
		case 2:
			k = min(1, n)
		case 3:
			k = max(n-1, 0)
		default:
			k = rng.Intn(n + 1)
		}
		a := append([]float64(nil), xs[:k]...)
		b := append([]float64(nil), xs[k:]...)
		sort.Float64s(a)
		sort.Float64s(b)
		seen["class "+c]++
		for _, run := range []struct {
			side string
			s    []float64
		}{{"prefix", a}, {"tail", b}} {
			switch len(run.s) {
			case 0:
				seen["empty "+run.side]++
			case 1:
				seen["one-value "+run.side]++
			}
		}
		if sharedValue(a, b) {
			seen["tie across the split"]++
		}
		for _, p := range []float64{0, 5, 50, 95, 99, 100, rng.Float64() * 100} {
			want := percentileRef(xs, p)
			got := PercentileOfSorted(a, b, p)
			if !samePercentile(got, want) {
				t.Fatalf("input %d (%s, %d+%d values): P%g = %v, reference %v", in, c, len(a), len(b), p, got, want)
			}
			switch {
			case math.IsNaN(want):
				seen["NaN result"]++
			case math.IsInf(want, 0):
				seen["infinite result"]++
			case want == 0 && math.Float64bits(got) != math.Float64bits(want):
				seen["zeros of opposite sign"]++
			}
		}
	}
	if got := PercentileOfSorted(nil, nil, 50); got != 0 {
		t.Errorf("P50 of two empty runs = %v, want 0", got)
	}
	t.Logf("coverage: %v", seen)
	want := []string{"empty prefix", "empty tail", "one-value prefix", "one-value tail",
		"tie across the split", "NaN result", "infinite result", "zeros of opposite sign"}
	for _, c := range percentileClasses {
		want = append(want, "class "+c)
	}
	for _, k := range want {
		if seen[k] == 0 {
			t.Errorf("generator never produced %s", k)
		}
	}
}

// sharedValue reports whether two sorted runs hold a value in common
// under sort.Float64s's order.
func sharedValue(a, b []float64) bool {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case less(a[i], b[j]):
			i++
		case less(b[j], a[i]):
			j++
		default:
			return true
		}
	}
	return false
}
