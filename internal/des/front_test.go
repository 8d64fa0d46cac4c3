package des

import "testing"

// arrival tags the front-band events, as the engine tags streamed job
// arrivals.
const arrival Kind = 1

func TestScheduleFrontFiresBeforeSameInstantEvents(t *testing.T) {
	// Front events at one instant fire before default-band events at
	// that instant, regardless of scheduling order; within each band,
	// scheduling order is preserved.
	s := New()
	var got []string
	mark := func(name string) Handler { return func(Time, any) { got = append(got, name) } }

	s.Schedule(10, mark("a"))
	s.Schedule(10, mark("b"))
	s.ScheduleFrontKind(10, arrival, nil, mark("x"))
	s.Schedule(10, mark("c"))
	s.ScheduleFrontKind(10, arrival, nil, mark("y"))
	s.Schedule(5, mark("early"))

	s.RunAll()
	want := []string{"early", "x", "y", "a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

func TestScheduleFrontChainsAtOneInstant(t *testing.T) {
	// A front handler scheduling another front event at the same
	// instant (the streamed-arrival pattern: arrival k schedules
	// arrival k+1) must see the chain complete before any default-band
	// event at that instant fires.
	s := New()
	var got []string
	s.Schedule(10, func(Time, any) { got = append(got, "pass") })
	var arrive func(n int) Handler
	arrive = func(n int) Handler {
		return func(Time, any) {
			got = append(got, "arrival")
			if n > 0 {
				s.ScheduleFrontKind(10, arrival, nil, arrive(n-1))
			}
		}
	}
	s.ScheduleFrontKind(10, arrival, nil, arrive(2))
	s.RunAll()
	want := []string{"arrival", "arrival", "arrival", "pass"}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}
