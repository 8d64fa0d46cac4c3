package report

import (
	"strings"
	"testing"

	"dismem"
)

// TestHugeDilationLineStaysShort runs a model that dilates pool-using
// jobs by about 1e300 (dmsched -jobs 200 -model linear:1e300 -local 16
// -policy easy-oblivious): the report's pool-using line must print the
// dilations in a few significant digits, not as 300-digit numbers.
func TestHugeDilationLineStaysShort(t *testing.T) {
	mc := dismem.DefaultMachine()
	mc.LocalMemMiB = 16 * 1024
	wl, err := dismem.GenerateWorkload(dismem.DefaultGen(200, 1, mc))
	if err != nil {
		t.Fatal(err)
	}
	res, err := dismem.Simulate(dismem.Options{
		Machine: mc, Policy: "easy-oblivious", Model: "linear:1e300", Workload: wl,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.DilationRemote.Mean() < 1e6 {
		t.Fatalf("mean remote dilation %g, want a huge one", res.Report.DilationRemote.Mean())
	}
	for _, line := range strings.Split(Format("easy-oblivious", res), "\n") {
		if strings.HasPrefix(line, "pool-using jobs") {
			if len(line) >= 100 {
				t.Fatalf("pool-using line is %d bytes: %s", len(line), line)
			}
			t.Log(line)
			return
		}
	}
	t.Fatal("no pool-using jobs line")
}

// TestDilationFormat pins both sides of the switch to significant
// digits: every committed report's dilations print as before.
func TestDilationFormat(t *testing.T) {
	for x, want := range map[float64]string{
		1: "1.00", 1.234: "1.23", 99.5: "99.50", 999999.99: "999999.99",
		1e6: "1e+06", 8.2221e299: "8.22e+299",
	} {
		if got := dilation(x); got != want {
			t.Errorf("dilation(%g) = %q, want %q", x, got, want)
		}
	}
}
