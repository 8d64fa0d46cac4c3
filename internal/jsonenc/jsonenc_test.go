package jsonenc

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// TestFloatSweep brute-forces the float encoder against encoding/json
// across magnitudes spanning both format regimes and the boundaries
// between them.
func TestFloatSweep(t *testing.T) {
	vals := []float64{0, 1e-6, 9.999999e-7, 1e21, 9.999e20, 1.5e-9, 2.5e24,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.Copysign(0, -1)}
	for exp := -30; exp <= 30; exp++ {
		vals = append(vals, 1.7*math.Pow(10, float64(exp)))
	}
	for _, v := range vals {
		for _, f := range []float64{v, -v} {
			want, err := json.Marshal(f)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Float(nil, f)
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("Float(%g) = %s, %v; want %s", f, got, err, want)
			}
		}
	}
}

// TestFloatNonFinite: NaN and ±Inf fail with json.Marshal's own error
// and leave the buffer as it was.
func TestFloatNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, want := json.Marshal(f)
		got, err := Float([]byte("x"), f)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("Float(%g) error = %v, want %v", f, err, want)
		}
		if string(got) != "x" {
			t.Errorf("Float(%g) wrote %q into the buffer", f, got)
		}
	}
}

func TestStringMatchesMarshal(t *testing.T) {
	for _, s := range []string{
		"", "done", "at=21600 down rack=2", `"quoted"`, `back\slash`,
		"html <tags> & ampersands", "control\tchars\nand\x00nul",
		"unicode: λ→µ", "line sep \u2028 para sep \u2029", "bad utf8 \xff\xfe",
	} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := String([]byte("x"), s); !bytes.Equal(got[1:], want) || got[0] != 'x' {
			t.Errorf("String(%q) = %s, want x%s", s, got, want)
		}
	}
}
