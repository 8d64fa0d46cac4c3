package des

import (
	"sort"
	"testing"
	"testing/quick"

	"dismem/internal/stats"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	var fired []Time
	for _, at := range []Time{5, 1, 9, 3, 3, 7} {
		at := at
		s.Schedule(at, func(now Time, _ any) { fired = append(fired, now) })
	}
	s.RunAll()
	want := []Time{1, 3, 3, 5, 7, 9}
	if len(fired) != len(want) {
		t.Fatalf("fired %d events, want %d", len(fired), len(want))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired[%d] = %d, want %d", i, fired[i], want[i])
		}
	}
}

func TestFIFOTieBreak(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(42, func(Time, any) { order = append(order, i) })
	}
	s.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of scheduling order: %v", order)
		}
	}
}

func TestHandlerSeesEventTime(t *testing.T) {
	s := New()
	s.Schedule(7, func(now Time, _ any) {
		if now != 7 {
			t.Fatalf("handler now = %d, want 7", now)
		}
		if s.Now() != 7 {
			t.Fatalf("simulator Now() = %d, want 7", s.Now())
		}
	})
	s.RunAll()
}

func TestScheduleDuringHandler(t *testing.T) {
	s := New()
	var fired []Time
	s.Schedule(1, func(now Time, _ any) {
		fired = append(fired, now)
		s.Schedule(now+4, func(now Time, _ any) { fired = append(fired, now) })
		s.Schedule(now, func(now Time, _ any) { fired = append(fired, now) })
	})
	s.RunAll()
	want := []Time{1, 1, 5}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
}

func TestCancel(t *testing.T) {
	s := New()
	ran := false
	e := s.Schedule(3, func(Time, any) { ran = true })
	s.Cancel(e)
	s.RunAll()
	if ran {
		t.Fatal("cancelled event fired")
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d after cancel, want 0", s.Pending())
	}
	// Cancelling again (and cancelling nil) must be harmless no-ops.
	s.Cancel(e)
	s.Cancel(nil)
}

func TestCancelOneOfSameTime(t *testing.T) {
	s := New()
	var fired []int
	e1 := s.Schedule(5, func(Time, any) { fired = append(fired, 1) })
	s.Schedule(5, func(Time, any) { fired = append(fired, 2) })
	s.Schedule(5, func(Time, any) { fired = append(fired, 3) })
	s.Cancel(e1)
	s.RunAll()
	if len(fired) != 2 || fired[0] != 2 || fired[1] != 3 {
		t.Fatalf("fired = %v, want [2 3]", fired)
	}
}

func TestPendingCount(t *testing.T) {
	s := New()
	if s.Pending() != 0 {
		t.Fatalf("fresh simulator has %d pending", s.Pending())
	}
	e1 := s.Schedule(1, func(Time, any) {})
	s.Schedule(2, func(Time, any) {})
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", s.Pending())
	}
	s.Cancel(e1)
	if s.Pending() != 1 {
		t.Fatalf("Pending after cancel = %d, want 1", s.Pending())
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var fired []Time
	for _, at := range []Time{1, 5, 10, 15} {
		s.Schedule(at, func(now Time, _ any) { fired = append(fired, now) })
	}
	s.Run(10)
	if len(fired) != 3 {
		t.Fatalf("Run(10) fired %d events, want 3 (at 1,5,10)", len(fired))
	}
	if s.Now() != 10 {
		t.Fatalf("Now() = %d after Run(10), want 10", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", s.Pending())
	}
	s.RunAll()
	if len(fired) != 4 {
		t.Fatal("remaining event did not fire on RunAll")
	}
}

func TestStop(t *testing.T) {
	s := New()
	count := 0
	s.Schedule(1, func(Time, any) { count++; s.Stop() })
	s.Schedule(2, func(Time, any) { count++ })
	s.RunAll()
	if count != 1 {
		t.Fatalf("events after Stop fired: count = %d", count)
	}
	if !s.Stopped() {
		t.Fatal("Stopped() = false")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New()
	s.Schedule(10, func(Time, any) {})
	s.RunAll()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling into the past did not panic")
		}
	}()
	s.Schedule(5, func(Time, any) {})
}

func TestNilHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil handler did not panic")
		}
	}()
	New().Schedule(1, nil)
}

func TestFiredCounter(t *testing.T) {
	s := New()
	for i := 0; i < 7; i++ {
		s.Schedule(Time(i), func(Time, any) {})
	}
	s.RunAll()
	if s.Fired() != 7 {
		t.Fatalf("Fired() = %d, want 7", s.Fired())
	}
}

// TestRandomScheduleOrderProperty: for any random multiset of times, the
// firing sequence equals the sorted multiset, and the clock is
// monotonically non-decreasing.
func TestRandomScheduleOrderProperty(t *testing.T) {
	rng := stats.NewRNG(99)
	check := func(raw []uint16) bool {
		s := New()
		var fired []Time
		times := make([]Time, len(raw))
		for i, v := range raw {
			times[i] = Time(v)
		}
		// Schedule in a shuffled order to decorrelate insertion order
		// from time order.
		rng.Shuffle(len(times), func(i, j int) { times[i], times[j] = times[j], times[i] })
		for _, at := range times {
			s.Schedule(at, func(now Time, _ any) { fired = append(fired, now) })
		}
		s.RunAll()
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		if len(fired) != len(times) {
			return false
		}
		for i := range times {
			if fired[i] != times[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestCancelDeterminism: random cancellations must leave exactly the
// non-cancelled events firing, in order.
func TestCancelDeterminism(t *testing.T) {
	rng := stats.NewRNG(7)
	check := func(raw []uint8) bool {
		s := New()
		type rec struct {
			ev     *Event
			at     Time
			cancel bool
		}
		var recs []rec
		fired := map[int]bool{}
		for i, v := range raw {
			i, at := i, Time(v)
			ev := s.Schedule(at, func(Time, any) { fired[i] = true })
			recs = append(recs, rec{ev: ev, at: at, cancel: rng.Float64() < 0.4})
		}
		for _, r := range recs {
			if r.cancel {
				s.Cancel(r.ev)
			}
		}
		s.RunAll()
		for i, r := range recs {
			if r.cancel == fired[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
