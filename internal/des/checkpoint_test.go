package des

import (
	"reflect"
	"testing"
)

// TestSnapshotRestoreOrder pins the core checkpoint guarantee: a
// restored queue fires the surviving events in exactly the order the
// original would have, including band and FIFO tie-breaks at one
// instant, and events scheduled after the restore still sort behind
// restored events at the same instant.
func TestSnapshotRestoreOrder(t *testing.T) {
	const (
		kindA Kind = iota + 1
		kindB
		kindFront
	)
	s := New()
	var origOrder []string
	mk := func(name string) Handler {
		return func(Time, any) { origOrder = append(origOrder, name) }
	}
	s.ScheduleKind(10, kindA, "a1", mk("a1"))
	s.ScheduleKind(10, kindB, "b1", mk("b1"))
	s.ScheduleFrontKind(10, kindFront, "f1", mk("f1"))
	s.ScheduleKind(5, kindA, "a0", mk("a0"))
	s.ScheduleKind(20, kindB, "b2", mk("b2"))

	recs, err := s.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if len(recs) != 5 {
		t.Fatalf("got %d records, want 5", len(recs))
	}
	// Records come out in firing order: time, then band, then seq.
	want := []string{"a0", "f1", "a1", "b1", "b2"}
	var got []string
	for _, r := range recs {
		got = append(got, r.Data.(string))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("record order %v, want %v", got, want)
	}

	var restOrder []string
	s2, evs, err := Restore(3, 7, recs, func(r EventRecord) Handler {
		name := r.Data.(string)
		return func(Time, any) { restOrder = append(restOrder, name) }
	})
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if s2.Now() != 3 || s2.Fired() != 7 {
		t.Fatalf("restored clock/fired = %d/%d, want 3/7", s2.Now(), s2.Fired())
	}
	if len(evs) != 5 {
		t.Fatalf("got %d event handles, want 5", len(evs))
	}
	for i, e := range evs {
		if e == nil {
			t.Fatalf("event %d not restored", i)
		}
		if e.Kind() != recs[i].Kind || e.Data() != recs[i].Data {
			t.Fatalf("event %d kind/data not carried over", i)
		}
	}
	// A post-restore event at t=10 must fire after every restored t=10
	// event (it would have been scheduled later in the original run).
	s2.ScheduleKind(10, kindA, "late", func(Time, any) { restOrder = append(restOrder, "late") })

	s.RunAll()
	s2.RunAll()
	wantRest := []string{"a0", "f1", "a1", "b1", "late", "b2"}
	if !reflect.DeepEqual(restOrder, wantRest) {
		t.Fatalf("restored firing order %v, want %v", restOrder, wantRest)
	}
	if !reflect.DeepEqual(origOrder, want) {
		t.Fatalf("original firing order %v, want %v", origOrder, want)
	}
}

// TestSnapshotRejectsOpaque pins that an untagged closure blocks the
// snapshot instead of being silently dropped.
func TestSnapshotRejectsOpaque(t *testing.T) {
	s := New()
	s.Schedule(10, func(Time, any) {})
	if _, err := s.Snapshot(); err == nil {
		t.Fatal("Snapshot of an opaque event succeeded, want error")
	}
}

// TestRestoreDropsNilHandlers pins the selective-restore contract: a
// rebuild returning nil discards that record, and the handle slot stays
// nil.
func TestRestoreDropsNilHandlers(t *testing.T) {
	s := New()
	s.ScheduleKind(10, 1, nil, func(Time, any) {})
	s.ScheduleKind(11, 2, nil, func(Time, any) {})
	recs, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	s2, evs, err := Restore(0, 0, recs, func(r EventRecord) Handler {
		if r.Kind == 1 {
			return nil
		}
		return func(Time, any) { fired++ }
	})
	if err != nil {
		t.Fatal(err)
	}
	if evs[0] != nil || evs[1] == nil {
		t.Fatalf("handles = [%v %v], want [nil non-nil]", evs[0], evs[1])
	}
	s2.RunAll()
	if fired != 1 || s2.Fired() != 1 {
		t.Fatalf("fired %d events (counter %d), want 1", fired, s2.Fired())
	}
}

// TestRestoreRejectsPastEvents guards against corrupt checkpoints.
func TestRestoreRejectsPastEvents(t *testing.T) {
	recs := []EventRecord{{Time: 5, Kind: 1}}
	if _, _, err := Restore(10, 0, recs, func(EventRecord) Handler { return func(Time, any) {} }); err == nil {
		t.Fatal("Restore accepted an event before the clock, want error")
	}
}

// chain records the order its events fire in; each event with an ID
// below limit schedules a follow-up with ID id+step.
type chain struct {
	s           *Simulator
	h           Handler
	order       []int
	limit, step int
}

func newChain(s *Simulator, limit, step int) *chain {
	c := &chain{s: s, limit: limit, step: step}
	c.h = func(now Time, data any) {
		id := data.(int)
		c.order = append(c.order, id)
		if id < c.limit {
			c.s.ScheduleKind(now+Time(id%7), 1, id+c.step, c.h)
		}
	}
	return c
}

// TestRestoreFromOneArray: Restore draws its events from one array on
// the free list. A restored queue of many events, some at one instant
// in both bands, each of whose handlers schedules a follow-up (so the
// array's elements are recycled and reused), must fire in exactly the
// original's order; and a restore's allocations must not grow with the
// number of records.
func TestRestoreFromOneArray(t *testing.T) {
	const n, gens = 300, 3
	orig := newChain(New(), gens*n, n)
	for i := 0; i < n; i++ {
		at := Time(i % 13)
		if i%5 == 0 {
			orig.s.ScheduleFrontKind(at, 2, i, orig.h)
		} else {
			orig.s.ScheduleKind(at, 1, i, orig.h)
		}
	}
	recs, err := orig.s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored := newChain(nil, gens*n, n)
	if restored.s, _, err = Restore(0, 0, recs, func(EventRecord) Handler { return restored.h }); err != nil {
		t.Fatal(err)
	}
	orig.s.RunAll()
	restored.s.RunAll()
	if len(orig.order) != (gens+1)*n || !reflect.DeepEqual(restored.order, orig.order) {
		t.Fatalf("restored queue fired %d events, original %d (same order: %v)",
			len(restored.order), len(orig.order), reflect.DeepEqual(restored.order, orig.order))
	}

	restoreAllocs := func(k int) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, _, err := Restore(0, 0, recs[:k], func(EventRecord) Handler { return orig.h }); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := restoreAllocs(2), restoreAllocs(n); many != few {
		t.Fatalf("Restore of %d records allocates %.0f times, of 2 records %.0f: allocations grow with the record count", n, many, few)
	}
}
