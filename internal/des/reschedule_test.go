package des

import (
	"fmt"
	"slices"
	"testing"

	"dismem/internal/stats"
)

// rescheduleTwin drives one simulator through a random operation
// sequence. moveInPlace selects how a pending event is moved:
// Reschedule, or Cancel followed by a schedule of the same band and
// kind.
type rescheduleTwin struct {
	s           *Simulator
	moveInPlace bool
	live        map[int]*Event // pending events by label
	front       map[int]bool   // labels scheduled in the front band
	fired       []int          // payloads in firing order
	handler     Handler
}

func newRescheduleTwin(moveInPlace bool) *rescheduleTwin {
	tw := &rescheduleTwin{s: New(), moveInPlace: moveInPlace, live: map[int]*Event{}, front: map[int]bool{}}
	tw.handler = func(_ Time, data any) {
		p := data.(int)
		tw.fired = append(tw.fired, p)
		delete(tw.live, p/1000)
	}
	return tw
}

func (tw *rescheduleTwin) schedule(label int, at Time, front bool, data int) {
	if front {
		tw.live[label] = tw.s.ScheduleFrontKind(at, 1, data, tw.handler)
	} else {
		tw.live[label] = tw.s.ScheduleKind(at, 1, data, tw.handler)
	}
	tw.front[label] = front
}

func (tw *rescheduleTwin) move(label int, at Time, data int) {
	if tw.moveInPlace {
		tw.s.Reschedule(tw.live[label], at, data)
		return
	}
	tw.s.Cancel(tw.live[label])
	tw.schedule(label, at, tw.front[label], data)
}

// TestRescheduleMatchesCancelAndSchedule runs seeded random queues
// through two simulators that differ only in how they move a pending
// event. The queues hold many events at equal instants in both bands;
// moves go earlier, later and to the same instant, interleaved with
// Step and Cancel. After every operation both must have the same
// Snapshot records, Fired count and firing order so far.
func TestRescheduleMatchesCancelAndSchedule(t *testing.T) {
	moves := map[string]int{}
	for seed := uint64(1); seed <= 200; seed++ {
		rng := stats.NewRNG(seed)
		a, b := newRescheduleTwin(true), newRescheduleTwin(false)
		next := 0
		for op := 0; op < 300; op++ {
			now := a.s.Now()
			switch r := rng.Intn(10); {
			case r < 4 || len(a.live) == 0:
				at := now + Time(rng.Intn(4))
				front := rng.Intn(4) == 0
				next++
				a.schedule(next, at, front, next*1000)
				b.schedule(next, at, front, next*1000)
			case r < 8:
				labels := liveLabels(a.live)
				label := labels[rng.Intn(len(labels))]
				cur := a.live[label].Time()
				var at Time
				switch k := rng.Intn(3); {
				case k == 0 && cur > now:
					at = now + Time(rng.Int63n(int64(cur-now)))
					moves["earlier"]++
				case k == 1:
					at = cur + 1 + Time(rng.Intn(3))
					moves["later"]++
				default:
					at = cur
					moves["same"]++
				}
				data := label*1000 + op
				a.move(label, at, data)
				b.move(label, at, data)
			case r < 9:
				labels := liveLabels(a.live)
				label := labels[rng.Intn(len(labels))]
				a.s.Cancel(a.live[label])
				b.s.Cancel(b.live[label])
				delete(a.live, label)
				delete(b.live, label)
			default:
				if a.s.Step() != b.s.Step() {
					t.Fatalf("seed %d op %d: Step disagrees", seed, op)
				}
			}
			compareTwins(t, fmt.Sprintf("seed %d op %d", seed, op), a, b)
		}
		a.s.RunAll()
		b.s.RunAll()
		compareTwins(t, fmt.Sprintf("seed %d drained", seed), a, b)
	}
	for _, k := range []string{"earlier", "later", "same"} {
		if moves[k] < 1000 {
			t.Errorf("only %d moves %s; the fixture no longer covers that case", moves[k], k)
		}
	}
}

func liveLabels(live map[int]*Event) []int {
	labels := make([]int, 0, len(live))
	for l := range live {
		labels = append(labels, l)
	}
	slices.Sort(labels)
	return labels
}

func compareTwins(t *testing.T, where string, a, b *rescheduleTwin) {
	t.Helper()
	if a.s.Fired() != b.s.Fired() || a.s.Now() != b.s.Now() || a.s.Pending() != b.s.Pending() {
		t.Fatalf("%s: fired/now/pending %d/%d/%d, Cancel+Schedule %d/%d/%d", where,
			a.s.Fired(), a.s.Now(), a.s.Pending(), b.s.Fired(), b.s.Now(), b.s.Pending())
	}
	if !slices.Equal(a.fired, b.fired) {
		t.Fatalf("%s: firing order %v, Cancel+Schedule %v", where, a.fired, b.fired)
	}
	ra, err := a.s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ra, rb) {
		t.Fatalf("%s: snapshot %v, Cancel+Schedule %v", where, ra, rb)
	}
}

// TestRescheduleDeadHandlePanics: a fired or cancelled handle is dead,
// and moving it must panic rather than resurrect it.
func TestRescheduleDeadHandlePanics(t *testing.T) {
	for _, c := range []struct {
		name string
		kill func(s *Simulator, e *Event)
	}{
		{"fired", func(s *Simulator, _ *Event) { s.Step() }},
		{"cancelled", func(s *Simulator, e *Event) { s.Cancel(e) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := New()
			e := s.ScheduleKind(1, 1, nil, func(Time, any) {})
			c.kill(s, e)
			defer func() {
				if recover() == nil {
					t.Fatal("Reschedule of a dead handle did not panic")
				}
			}()
			s.Reschedule(e, 2, nil)
		})
	}
}

// TestReschedulePastPanics: moving an event before the clock is a
// causality bug, like scheduling into the past.
func TestReschedulePastPanics(t *testing.T) {
	s := New()
	s.Schedule(5, func(Time, any) {})
	e := s.Schedule(9, func(Time, any) {})
	s.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("Reschedule into the past did not panic")
		}
	}()
	s.Reschedule(e, 4, nil)
}
