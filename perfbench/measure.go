package main

import (
	"math"
	"runtime"
	"sort"
	"time"

	"dismem"
)

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so spreads printed here match the ones a reader computes from the
// result lines. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// percentile returns the p-th percentile (0 < p < 100) of sorted by the
// nearest-rank rule.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// heapProbeEvery is how many job terminations pass between two live
// heap probes.
const heapProbeEvery = 10_000

// heapProbe is an observer that measures the live heap, by forcing a
// collection, every heapProbeEvery job terminations and keeps the
// largest value.
type heapProbe struct {
	dismem.NopObserver
	terminated int
	peak       uint64
}

func (h *heapProbe) OnTerminate(int64, dismem.JobRecord) {
	h.terminated++
	if h.terminated%heapProbeEvery != 0 {
		return
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h.peak = max(h.peak, ms.HeapAlloc)
}

// repeatFor calls once at least atLeast times, then again while a call
// of the mean length so far would still end within budget, so a run
// overshoots its budget by little.
func repeatFor(budget time.Duration, atLeast int, once func() error) error {
	start := time.Now()
	for i := 0; ; i++ {
		if el := time.Since(start); i >= atLeast && (i == 0 || el+el/time.Duration(i) > budget) {
			return nil
		}
		if err := once(); err != nil {
			return err
		}
	}
}

// setupSampler times a workload's set-up. The run calls it once before
// the measured repetitions, for their inputs, and again between them,
// so that its median covers the same stretch of time as the
// measurement. On a shared machine one core's speed changes by half
// from one second to the next, and a set-up of a few milliseconds
// timed only at the start reads whichever speed the start got.
type setupSampler struct {
	setup func() error
	walls []float64
}

// sample runs the set-up once and records its wall time.
func (s *setupSampler) sample() error {
	runtime.GC()
	start := time.Now()
	if err := s.setup(); err != nil {
		return err
	}
	s.walls = append(s.walls, time.Since(start).Seconds())
	return nil
}

// sampleAfter runs the set-up for about a tenth of rep, the length of
// the repetition just measured, and at least once.
func (s *setupSampler) sampleAfter(rep time.Duration) error {
	start := time.Now()
	for {
		if err := s.sample(); err != nil {
			return err
		}
		if time.Since(start) >= rep/10 {
			return nil
		}
	}
}

// median returns the median set-up time in seconds.
func (s *setupSampler) median() float64 { return median(s.walls) }
