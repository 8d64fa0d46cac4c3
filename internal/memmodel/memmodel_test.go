package memmodel

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestLinearKnownValues(t *testing.T) {
	m := Linear{Beta: 0.5}
	cases := []struct{ f, want float64 }{
		{0, 1}, {1, 1.5}, {0.5, 1.25},
		{-1, 1}, {2, 1.5}, // clamped
	}
	for _, c := range cases {
		if got := m.Dilation(c.f, 0); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("linear(%g) = %g, want %g", c.f, got, c.want)
		}
	}
}

func TestStepKnownValues(t *testing.T) {
	m := Step{Beta0: 0.1, Beta: 0.5}
	if got := m.Dilation(0, 0); got != 1 {
		t.Fatalf("step(0) = %g, want exactly 1", got)
	}
	if got := m.Dilation(0.001, 0); got < 1.1 {
		t.Fatalf("step(ε) = %g, want >= 1.1 (fixed overhead)", got)
	}
	if got := m.Dilation(1, 0); math.Abs(got-1.6) > 1e-12 {
		t.Fatalf("step(1) = %g, want 1.6", got)
	}
}

func TestBandwidthKnownValues(t *testing.T) {
	m := Bandwidth{Beta: 0.5, Gamma: 1}
	// No congestion term until the fabric is oversubscribed.
	if got := m.Dilation(1, 0.9); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("bandwidth(f=1, c=0.9) = %g, want 1.5", got)
	}
	// 2x oversubscription doubles the remote penalty.
	if got := m.Dilation(1, 2); math.Abs(got-2.0) > 1e-12 {
		t.Fatalf("bandwidth(f=1, c=2) = %g, want 2.0", got)
	}
}

// TestDilationProperties: every model must return >= 1, be monotone in
// f, and (for Bandwidth) monotone in congestion.
func TestDilationProperties(t *testing.T) {
	models := []Model{
		Linear{Beta: 0.7},
		Step{Beta0: 0.2, Beta: 1.1},
		Bandwidth{Beta: 1.5, Gamma: 2},
	}
	check := func(rawF, rawC uint16) bool {
		f := float64(rawF) / math.MaxUint16     // [0,1]
		c := float64(rawC) / math.MaxUint16 * 4 // [0,4]
		f2 := math.Min(1, f+0.1)
		for _, m := range models {
			d := m.Dilation(f, c)
			if d < 1 {
				return false
			}
			if m.Dilation(f2, c) < d-1e-12 {
				return false // not monotone in f
			}
			if m.Dilation(f, c+0.5) < d-1e-12 {
				return false // not monotone in congestion
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestContentionSensitive(t *testing.T) {
	if ContentionSensitive(Linear{Beta: 1}) {
		t.Fatal("Linear reported contention-sensitive")
	}
	if ContentionSensitive(Step{Beta0: 0.1, Beta: 1}) {
		t.Fatal("Step reported contention-sensitive")
	}
	if !ContentionSensitive(Bandwidth{Beta: 1, Gamma: 1}) {
		t.Fatal("Bandwidth not reported contention-sensitive")
	}
	if ContentionSensitive(Bandwidth{Beta: 1, Gamma: 0}) {
		t.Fatal("Bandwidth with γ=0 must not be contention-sensitive")
	}
	if ContentionSensitive(nil) {
		t.Fatal("nil model reported contention-sensitive")
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want Model
	}{
		{"linear:0.5", Linear{Beta: 0.5}},
		{"step:0.1,0.5", Step{Beta0: 0.1, Beta: 0.5}},
		{"bandwidth:0.5,1", Bandwidth{Beta: 0.5, Gamma: 1}},
		{"linear: 2 ", Linear{Beta: 2}},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("Parse(%q) = %#v, want %#v", c.in, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{
		"", "unknown:1", "linear", "linear:1,2", "step:1",
		"bandwidth:1", "linear:abc", "linear:",
	} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) accepted", in)
		}
	}
	// Parameters outside [0, +Inf) are rejected with an error naming
	// the parameter: a negative penalty would speed jobs up, and NaN or
	// ±Inf cannot be encoded in the records and trace.
	for _, c := range []struct{ in, param string }{
		{"linear:-3", "linear parameter beta"},
		{"linear:-1e-300", "linear parameter beta"},
		{"linear:NaN", "linear parameter beta"},
		{"linear:+Inf", "linear parameter beta"},
		{"linear:-Inf", "linear parameter beta"},
		{"step:-1,-1", "step parameter beta0"},
		{"step:0.1,-1", "step parameter beta"},
		{"step:0.1,inf", "step parameter beta"},
		{"bandwidth:NaN,1", "bandwidth parameter beta"},
		{"bandwidth:1,-0.5", "bandwidth parameter gamma"},
		{"bandwidth:1,Infinity", "bandwidth parameter gamma"},
	} {
		_, err := Parse(c.in)
		if err == nil || !strings.Contains(err.Error(), c.param+" = ") {
			t.Errorf("Parse(%q) = %v, want an error naming %q", c.in, err, c.param)
		}
	}
}

// FuzzParse: Parse never panics, and every model it accepts dilates by
// at least 1, never NaN, for every remote fraction in [0, 1] and every
// congestion in [0, 16] — a grid of edge values plus the fuzzer's own
// (f, c) when in range.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"linear:0.5", "step:0.1,0.5", "bandwidth:0.5,1", "linear: 2 ", "linear:0",
		"bandwidth:0,1e308", "bandwidth:5e-324,1e308", "step:1e308,1e308",
		"linear:-3", "step:-1,-1", "linear:NaN", "bandwidth:1,-Inf", "linear:1,2", "unknown:1",
	} {
		f.Add(s, 0.5, 2.0)
	}
	f.Fuzz(func(t *testing.T, spec string, rf, rc float64) {
		m, err := Parse(spec)
		if err != nil {
			if m != nil {
				t.Fatalf("Parse(%q) returned a model with error %v", spec, err)
			}
			return
		}
		fs := []float64{0, 5e-324, 1e-300, 0.5, 1}
		cs := []float64{0, 1, math.Nextafter(1, 2), 2, 16}
		if rf >= 0 && rf <= 1 {
			fs = append(fs, rf)
		}
		if rc >= 0 && rc <= 16 {
			cs = append(cs, rc)
		}
		for _, fv := range fs {
			for _, cv := range cs {
				if d := m.Dilation(fv, cv); !(d >= 1) {
					t.Fatalf("Parse(%q) = %#v: Dilation(%g, %g) = %g, want >= 1", spec, m, fv, cv, d)
				}
			}
		}
	})
}

func TestNames(t *testing.T) {
	for _, m := range []Model{
		Linear{Beta: 0.5}, Step{Beta0: 0.1, Beta: 0.5}, Bandwidth{Beta: 1, Gamma: 2},
	} {
		if m.Name() == "" || !strings.Contains(m.Name(), "(") {
			t.Errorf("uninformative model name %q", m.Name())
		}
	}
}
