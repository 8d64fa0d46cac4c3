// Package memmodel provides job-slowdown models for placements that
// serve part of a job's footprint from disaggregated memory.
//
// A model maps (remote fraction f, fabric congestion c) to a dilation
// factor D >= 1: a job whose base runtime is r completes r*D seconds of
// wall-clock work under constant conditions. Congestion c is the
// backing pool's demand/bandwidth ratio as accounted by package
// cluster; c > 1 means the fabric is oversubscribed.
//
// These parametric models substitute for the application profiling a
// hardware evaluation would use. They preserve the two behaviours a
// scheduler must reason about — dilation grows monotonically with the
// remote fraction, and with fabric contention — while the penalty
// coefficient β is swept across the CXL (≈0.25–0.5) to RDMA (≈1–3)
// regimes in the experiments.
package memmodel

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Model computes a dilation factor for a placement.
type Model interface {
	// Dilation returns the runtime multiplier (>= 1) for a job with
	// remote fraction f in [0,1] under fabric congestion c >= 0.
	Dilation(f, c float64) float64
	// Name returns a short identifier for reports.
	Name() string
}

// Linear dilates runtime proportionally to the remote fraction:
//
//	D = 1 + Beta*f
//
// Beta is the full-remote penalty: Beta = 0.5 means an all-remote job
// runs 1.5x its base runtime. Congestion is ignored.
type Linear struct {
	Beta float64
}

// Dilation implements Model.
func (m Linear) Dilation(f, _ float64) float64 { return 1 + m.Beta*clamp01(f) }

// Name implements Model.
func (m Linear) Name() string { return fmt.Sprintf("linear(β=%.2g)", m.Beta) }

// Step adds a fixed software overhead the moment any page is remote
// (page-fault/driver cost), then grows linearly:
//
//	D = 1                      if f == 0
//	D = 1 + Beta0 + Beta*f     otherwise
type Step struct {
	Beta0, Beta float64
}

// Dilation implements Model.
func (m Step) Dilation(f, _ float64) float64 {
	f = clamp01(f)
	if f == 0 {
		return 1
	}
	return 1 + m.Beta0 + m.Beta*f
}

// Name implements Model.
func (m Step) Name() string { return fmt.Sprintf("step(β₀=%.2g,β=%.2g)", m.Beta0, m.Beta) }

// Bandwidth extends Linear with a fabric-contention term: when the
// backing pool's aggregate demand exceeds its bandwidth, every remote
// byte takes proportionally longer:
//
//	D = 1 + Beta*f*(1 + Gamma*max(0, c-1))
//
// With Gamma = 1 a 2x-oversubscribed fabric doubles the remote penalty.
// This is the model under which the simulator re-dilates running jobs
// as congestion changes (see internal/sim).
type Bandwidth struct {
	Beta, Gamma float64
}

// Dilation implements Model. A job with no remote penalty (Beta*f is
// 0) runs undilated however congested the fabric, even where the
// contention factor overflows to +Inf, which would make the product
// NaN.
func (m Bandwidth) Dilation(f, c float64) float64 {
	penalty := m.Beta * clamp01(f)
	if penalty == 0 {
		return 1
	}
	over := c - 1
	if over < 0 {
		over = 0
	}
	return 1 + penalty*(1+m.Gamma*over)
}

// Name implements Model.
func (m Bandwidth) Name() string { return fmt.Sprintf("bandwidth(β=%.2g,γ=%.2g)", m.Beta, m.Gamma) }

// ContentionSensitive reports whether the model's output depends on
// congestion, i.e. whether the simulator must re-dilate running jobs
// when allocations change.
func ContentionSensitive(m Model) bool {
	if m == nil {
		return false
	}
	return m.Dilation(1, 5) != m.Dilation(1, 0)
}

// Parse builds a model from a config string:
//
//	"linear:0.5"        Linear{Beta: 0.5}
//	"step:0.1,0.5"      Step{Beta0: 0.1, Beta: 0.5}
//	"bandwidth:0.5,1"   Bandwidth{Beta: 0.5, Gamma: 1}
//
// Every parameter is a penalty or a contention factor, so it must be a
// finite number >= 0: a negative one would speed jobs up (dilation
// below 1), and NaN or ±Inf would reach the records and trace as values
// JSON cannot encode. The error names the offending parameter.
func Parse(s string) (Model, error) {
	name, argstr, _ := strings.Cut(s, ":")
	var params []string
	switch name {
	case "linear":
		params = []string{"beta"}
	case "step":
		params = []string{"beta0", "beta"}
	case "bandwidth":
		params = []string{"beta", "gamma"}
	default:
		return nil, fmt.Errorf("memmodel: unknown model %q", name)
	}
	var fields []string
	if argstr != "" {
		fields = strings.Split(argstr, ",")
	}
	if len(fields) != len(params) {
		return nil, fmt.Errorf("memmodel: %s wants %d parameter(s) (%s), got %d", name, len(params), strings.Join(params, ","), len(fields))
	}
	args := make([]float64, len(fields))
	for i, p := range fields {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("memmodel: bad %s parameter %s %q in %q: %v", name, params[i], p, s, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return nil, fmt.Errorf("memmodel: %s parameter %s = %g in %q must be a finite number >= 0", name, params[i], v, s)
		}
		args[i] = v
	}
	switch name {
	case "linear":
		return Linear{Beta: args[0]}, nil
	case "step":
		return Step{Beta0: args[0], Beta: args[1]}, nil
	default:
		return Bandwidth{Beta: args[0], Gamma: args[1]}, nil
	}
}

func clamp01(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}
