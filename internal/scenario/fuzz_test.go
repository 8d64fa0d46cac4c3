package scenario

import (
	"reflect"
	"testing"
)

// FuzzScenarioParse feeds arbitrary specs to Parse. It must never
// panic, every spec it accepts must validate, and Parse(s.String())
// must reproduce s, the round trip Scenario.String promises (with
// String a fixed point of it). The committed corpus covers every verb,
// node= and rack= targets, pool=all, float scales and rates, and \r\n
// separators.
func FuzzScenarioParse(f *testing.F) {
	f.Add("at=3600 down rack=2; at=7200 up rack=2; from=0 period=86400 amp=0.5 diurnal")
	f.Add("at=0 down node=3\r\nat=10 resize pool=all cap=0\r\nat=20 beta scale=1.5e-3\r\nat=30 grow\r\nfrom=5 until=15 rate=2.5 surge")
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := Parse(spec)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("Parse(%q) accepted a scenario that does not validate: %v", spec, err)
		}
		out := s.String()
		again, err := Parse(out)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, but its String %q fails: %v", spec, out, err)
		}
		if !reflect.DeepEqual(s, again) {
			t.Fatalf("round trip of %q via %q:\n got %+v\nwant %+v", spec, out, again, s)
		}
		if out2 := again.String(); out2 != out {
			t.Fatalf("String of %q is not a fixed point: %q then %q", spec, out, out2)
		}
	})
}
