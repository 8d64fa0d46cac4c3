package stats

import (
	"fmt"
	"sort"
)

// P2 estimates a single quantile of a stream in O(1) memory using the
// P² algorithm (Jain & Chlamtac, CACM 1985): five markers track the
// minimum, the target quantile, the quantile's half-way neighbours and
// the maximum, and are nudged toward their ideal positions with a
// piecewise-parabolic height update as observations arrive. With fewer
// than five observations the estimate is exact (the observations are
// simply kept); beyond that, accuracy is typically within a fraction of
// a percent of the true quantile for smooth distributions.
//
// The estimator is deterministic: the same observation sequence always
// produces the same estimate. Construct with NewP2; the zero value is
// not usable.
type P2 struct {
	p float64 // target quantile in (0,1)

	q  [5]float64 // marker heights
	n  [5]float64 // marker positions (1-based)
	np [5]float64 // desired marker positions
	dn [5]float64 // desired position increments per observation

	count int64
}

// NewP2 returns an estimator for quantile p in (0, 1), e.g. 0.95.
func NewP2(p float64) *P2 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("stats: P2 quantile %g outside (0,1)", p))
	}
	e := &P2{p: p}
	e.np = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
	e.dn = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
	return e
}

// Add incorporates one observation.
func (e *P2) Add(x float64) {
	if e.count < 5 {
		e.q[e.count] = x
		e.count++
		if e.count == 5 {
			sort.Float64s(e.q[:])
			for i := range e.n {
				e.n[i] = float64(i + 1)
			}
		}
		return
	}
	e.count++

	// Locate the cell containing x and stretch the extremes.
	var k int
	switch {
	case x < e.q[0]:
		e.q[0] = x
		k = 0
	case x >= e.q[4]:
		e.q[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < e.q[k+1] {
				break
			}
		}
	}

	for i := k + 1; i < 5; i++ {
		e.n[i]++
	}
	for i := range e.np {
		e.np[i] += e.dn[i]
	}

	// Nudge the three interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := e.np[i] - e.n[i]
		if (d >= 1 && e.n[i+1]-e.n[i] > 1) || (d <= -1 && e.n[i-1]-e.n[i] < -1) {
			s := 1.0
			if d < 0 {
				s = -1
			}
			qn := e.parabolic(i, s)
			if e.q[i-1] < qn && qn < e.q[i+1] {
				e.q[i] = qn
			} else {
				e.q[i] = e.linear(i, s)
			}
			e.n[i] += s
		}
	}
}

// parabolic is the P² piecewise-parabolic height prediction for moving
// marker i by d (±1).
func (e *P2) parabolic(i int, d float64) float64 {
	return e.q[i] + d/(e.n[i+1]-e.n[i-1])*
		((e.n[i]-e.n[i-1]+d)*(e.q[i+1]-e.q[i])/(e.n[i+1]-e.n[i])+
			(e.n[i+1]-e.n[i]-d)*(e.q[i]-e.q[i-1])/(e.n[i]-e.n[i-1]))
}

// linear is the fallback height prediction when the parabola would
// leave marker i's bracket.
func (e *P2) linear(i int, d float64) float64 {
	j := i + int(d)
	return e.q[i] + d*(e.q[j]-e.q[i])/(e.n[j]-e.n[i])
}

// N returns the number of observations.
func (e *P2) N() int64 { return e.count }

// Quantile returns the current estimate: exact (closest-rank linear
// interpolation, matching Percentile) below five observations, the P²
// marker height otherwise. It returns 0 when empty.
func (e *P2) Quantile() float64 {
	if e.count == 0 {
		return 0
	}
	if e.count < 5 {
		return Percentile(e.q[:e.count], e.p*100)
	}
	return e.q[2]
}
