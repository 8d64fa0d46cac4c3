package stats

import "math"

// Dist is a one-dimensional probability distribution that can be sampled
// with an externally supplied generator, so a single RNG stream drives a
// whole workload model deterministically.
type Dist interface {
	// Sample draws one variate using r.
	Sample(r *RNG) float64
	// Mean returns the analytic mean of the distribution.
	Mean() float64
}

// Constant is the degenerate distribution that always returns Value.
type Constant struct{ Value float64 }

// Sample implements Dist.
func (c Constant) Sample(*RNG) float64 { return c.Value }

// Mean implements Dist.
func (c Constant) Mean() float64 { return c.Value }

// Uniform is the continuous uniform distribution on [Lo, Hi).
type Uniform struct{ Lo, Hi float64 }

// Sample implements Dist.
func (u Uniform) Sample(r *RNG) float64 { return u.Lo + (u.Hi-u.Lo)*r.Float64() }

// Mean implements Dist.
func (u Uniform) Mean() float64 { return (u.Lo + u.Hi) / 2 }

// Exponential is the exponential distribution with the given Rate (λ).
type Exponential struct{ Rate float64 }

// Sample implements Dist.
func (e Exponential) Sample(r *RNG) float64 { return r.ExpFloat64() / e.Rate }

// Mean implements Dist.
func (e Exponential) Mean() float64 { return 1 / e.Rate }

// Normal is the Gaussian distribution with mean Mu and stddev Sigma.
type Normal struct{ Mu, Sigma float64 }

// Sample implements Dist.
func (n Normal) Sample(r *RNG) float64 { return n.Mu + n.Sigma*r.NormFloat64() }

// Mean implements Dist.
func (n Normal) Mean() float64 { return n.Mu }

// LogNormal is the log-normal distribution: exp(N(Mu, Sigma)). It is the
// canonical model for HPC job runtimes (Lublin & Feitelson 2003).
type LogNormal struct{ Mu, Sigma float64 }

// Sample implements Dist.
func (l LogNormal) Sample(r *RNG) float64 {
	return math.Exp(l.Mu + l.Sigma*r.NormFloat64())
}

// Mean implements Dist.
func (l LogNormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

// Weibull is the Weibull distribution with shape K and scale Lambda.
// Shape < 1 yields the bursty inter-arrival times observed on production
// HPC systems.
type Weibull struct{ K, Lambda float64 }

// Sample implements Dist.
func (w Weibull) Sample(r *RNG) float64 {
	return w.Lambda * math.Pow(r.ExpFloat64(), 1/w.K)
}

// Mean implements Dist.
func (w Weibull) Mean() float64 { return w.Lambda * gamma(1+1/w.K) }

// Pareto is the (type I) Pareto distribution with scale Xm and shape
// Alpha, used for heavy-tailed memory footprints.
type Pareto struct{ Xm, Alpha float64 }

// Sample implements Dist.
func (p Pareto) Sample(r *RNG) float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return p.Xm / math.Pow(u, 1/p.Alpha)
		}
	}
}

// Mean implements Dist. It returns +Inf when Alpha <= 1.
func (p Pareto) Mean() float64 {
	if p.Alpha <= 1 {
		return math.Inf(1)
	}
	return p.Alpha * p.Xm / (p.Alpha - 1)
}

// Truncated wraps a distribution and clamps samples to [Lo, Hi]. Mean is
// reported as the clamped mean of the inner distribution (approximate).
type Truncated struct {
	Inner  Dist
	Lo, Hi float64
}

// Sample implements Dist.
func (t Truncated) Sample(r *RNG) float64 {
	v := t.Inner.Sample(r)
	if v < t.Lo {
		return t.Lo
	}
	if v > t.Hi {
		return t.Hi
	}
	return v
}

// Mean implements Dist.
func (t Truncated) Mean() float64 {
	m := t.Inner.Mean()
	if m < t.Lo {
		return t.Lo
	}
	if m > t.Hi {
		return t.Hi
	}
	return m
}

// Mixture draws from Components[i] with probability Weights[i]. Weights
// need not sum to one; they are normalised at sampling time.
type Mixture struct {
	Weights    []float64
	Components []Dist
}

// Sample implements Dist.
func (m Mixture) Sample(r *RNG) float64 {
	total := 0.0
	for _, w := range m.Weights {
		total += w
	}
	u := r.Float64() * total
	acc := 0.0
	for i, w := range m.Weights {
		acc += w
		if u < acc {
			return m.Components[i].Sample(r)
		}
	}
	return m.Components[len(m.Components)-1].Sample(r)
}

// Mean implements Dist.
func (m Mixture) Mean() float64 {
	total, acc := 0.0, 0.0
	for i, w := range m.Weights {
		total += w
		acc += w * m.Components[i].Mean()
	}
	if total == 0 {
		return 0
	}
	return acc / total
}

// Zipf samples integers in [1, N] with probability proportional to
// 1/rank^S. It precomputes the CDF, so construction is O(N) and sampling
// is O(log N); N is bounded by practical job-size alphabets.
type Zipf struct {
	cdf []float64
}

// NewZipf builds a Zipf distribution over [1, n] with exponent s > 0.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("stats: NewZipf needs n > 0")
	}
	cdf := make([]float64, n)
	acc := 0.0
	for i := 1; i <= n; i++ {
		acc += 1 / math.Pow(float64(i), s)
		cdf[i-1] = acc
	}
	for i := range cdf {
		cdf[i] /= acc
	}
	return &Zipf{cdf: cdf}
}

// Sample draws one rank in [1, len(cdf)].
func (z *Zipf) Sample(r *RNG) int {
	u := r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 1
}

// gamma is the Gamma function via the Lanczos approximation, sufficient
// for the distribution means reported in workload summaries.
func gamma(x float64) float64 {
	g, _ := math.Lgamma(x)
	return math.Exp(g)
}
