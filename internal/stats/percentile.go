package stats

import (
	"math"
	"sort"
)

// Percentile returns the p-th percentile (p in [0,100]) of xs using
// linear interpolation between closest ranks. It returns 0 for an empty
// slice and does not modify xs.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

// Percentiles returns the requested percentiles of xs with a single sort.
func Percentiles(xs []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(xs) == 0 {
		return out
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for i, p := range ps {
		out[i] = percentileSorted(s, p)
	}
	return out
}

func percentileSorted(s []float64, p float64) float64 {
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
	// Unlike a weighted sum, this form never dips below s[lo] in the
	// last bit: it is monotone in frac and exact when s[lo] == s[hi].
	frac := rank - float64(lo)
	return s[lo] + (s[hi]-s[lo])*frac
}
