package stats

import (
	"math"
	"math/bits"
	"sort"
)

// Percentile returns the p-th percentile (p in [0,100]) of xs using
// linear interpolation between closest ranks. It returns 0 for an empty
// slice and does not modify xs: it selects from a copy
// (PercentileInPlace), which costs O(n) where sorting cost O(n log n).
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return PercentileInPlace(append([]float64(nil), xs...), p)
}

// Percentiles returns the requested percentiles of xs from one copy.
func Percentiles(xs []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(xs) == 0 {
		return out
	}
	s := append([]float64(nil), xs...)
	for i, p := range ps {
		out[i] = PercentileInPlace(s, p)
	}
	return out
}

// PercentileInPlace is Percentile without the copy: it reorders xs,
// and the caller owns what is left. It selects the element of rank
// ⌊r⌋ (r = p/100·(n−1)) and takes rank ⌈r⌉ as the minimum of what
// selection leaves above it, so the result equals interpolating a
// sorted copy under sort.Float64s's order (NaN first, ±0 equal). Any
// reordering of the same values gives the same result, so a caller may
// ask for several percentiles of one slice in turn.
func PercentileInPlace(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	lo, hi, frac := ranks(n, p)
	selectRank(xs, lo)
	if lo == hi {
		return xs[lo]
	}
	up := xs[hi]
	for _, x := range xs[hi+1:] {
		if less(x, up) {
			up = x
		}
	}
	return interpolate(xs[lo], up, frac)
}

// PercentileOfSorted is Percentile of the union of a and b, each
// sorted by sort.Float64s, in O(log min(len(a), len(b))). A binary
// search finds the split that puts the ⌊r⌋+1 smallest values of the
// union in a[:i] and b[:j], so rank ⌊r⌋ is the larger of a[i−1] and
// b[j−1] and rank ⌈r⌉ the smaller of a[i] and b[j]. It equals
// PercentileInPlace of the concatenation, up to the ±0 and NaN bits
// that order calls equal.
func PercentileOfSorted(a, b []float64, p float64) float64 {
	n := len(a) + len(b)
	if n == 0 {
		return 0
	}
	lo, hi, frac := ranks(n, p)
	// i counts a's values among the lo+1 smallest: the first i in
	// [max(0, lo+1−len(b)), min(lo+1, len(a))] whose a[i] is not
	// less than b's lo−i, the last value b would then contribute.
	first := max(0, lo+1-len(b))
	i := first + sort.Search(min(lo+1, len(a))-first, func(d int) bool {
		return !less(a[first+d], b[lo-first-d])
	})
	j := lo + 1 - i
	var x float64
	switch {
	case i == 0:
		x = b[j-1]
	case j == 0 || !less(a[i-1], b[j-1]):
		x = a[i-1]
	default:
		x = b[j-1]
	}
	if lo == hi {
		return x
	}
	var up float64
	switch {
	case i == len(a):
		up = b[j]
	case j == len(b) || !less(b[j], a[i]):
		up = a[i]
	default:
		up = b[j]
	}
	return interpolate(x, up, frac)
}

// ranks returns the ranks a percentile interpolates between among n
// sorted values, ⌊r⌋ and ⌈r⌉ for r = p/100·(n−1), and r's fraction.
func ranks(n int, p float64) (lo, hi int, frac float64) {
	switch {
	case p <= 0:
	case p >= 100:
		lo, hi = n-1, n-1
	default:
		rank := p / 100 * float64(n-1)
		lo, hi = int(math.Floor(rank)), int(math.Ceil(rank))
		frac = rank - float64(lo)
	}
	return lo, hi, frac
}

// interpolate returns the value frac of the way from x to up. Unlike a
// weighted sum, this form never dips below x in the last bit: it is
// monotone in frac and exact when x == up.
func interpolate(x, up, frac float64) float64 { return x + (up-x)*frac }

// less is sort.Float64s's order: NaN before every number, -0 == +0.
func less(a, b float64) bool { return a < b || (a != a && b == b) }

// selectRank reorders s so that s[k] holds the value a sort would put
// there, nothing before it is greater and nothing after it is less.
// It is a quickselect with three-way partitions, so ties shrink the
// window instead of stalling it. The pivot is deterministic, the
// median of the window's first, middle and last values, and a window
// still open after 2·log2(n) partitions is sorted instead, so
// adversarial input costs O(n log n) at worst.
func selectRank(s []float64, k int) {
	lo, hi := 0, len(s)
	for depth := 2 * bits.Len(uint(len(s))); ; depth-- {
		if hi-lo <= 16 || depth == 0 {
			sort.Float64s(s[lo:hi])
			return
		}
		lt, gt := partition3(s[lo:hi], median3(s[lo], s[lo+(hi-lo)/2], s[hi-1]))
		switch {
		case k < lo+lt:
			hi = lo + lt
		case k >= lo+gt:
			lo += gt
		default:
			return
		}
	}
}

// median3 returns the median of a, b and c.
func median3(a, b, c float64) float64 {
	if less(b, a) {
		a, b = b, a
	}
	if less(c, b) {
		b = c
		if less(b, a) {
			b = a
		}
	}
	return b
}

// partition3 reorders s into the values less than v, those equal to
// it and those greater, and returns the bounds of the equal band
// s[lt:gt].
func partition3(s []float64, v float64) (lt, gt int) {
	i, gt := 0, len(s)
	for i < gt {
		switch x := s[i]; {
		case less(x, v):
			s[lt], s[i] = x, s[lt]
			lt++
			i++
		case less(v, x):
			gt--
			s[i], s[gt] = s[gt], x
		default:
			i++
		}
	}
	return lt, gt
}
