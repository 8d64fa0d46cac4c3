// Package des implements a deterministic discrete-event simulation
// kernel: a virtual clock plus a priority queue of timed callbacks.
//
// Events scheduled for the same instant fire in the order they were
// scheduled (stable FIFO tie-break on a monotonically increasing
// sequence number), which makes simulations reproducible regardless of
// heap internals. Events can be cancelled in O(log n) via the handle
// returned from Schedule, and a pending event can be moved in place
// with Reschedule, which gives it the sequence number a fresh schedule
// would: firing order is exactly that of Cancel followed by a new
// schedule, without the heap removal and re-insertion.
//
// The kernel is single-threaded by design: HPC scheduling simulations
// are dominated by the strict total order of events, so the idiomatic
// Go approach is to keep the kernel sequential and parallelise across
// independent simulations (seeds, sweep points) instead — which is what
// internal/sweep does.
package des

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
)

// Time is virtual simulation time in seconds since simulation start.
type Time int64

// Infinity is a sentinel time later than any schedulable event.
const Infinity Time = math.MaxInt64

// Handler is a callback invoked when an event fires. now is the
// simulator clock at firing time (== the time the event was scheduled
// for) and data is the payload attached at schedule time (nil for the
// plain Schedule variants). Passing the payload to the handler lets a
// scheduling layer register one handler per event family instead of
// closing over per-event state, which keeps the event hot path
// allocation-free.
type Handler func(now Time, data any)

// Kind tags an event with a caller-defined type so the queue can be
// snapshotted as data (Snapshot) and the closures rebuilt on restore
// (Restore). Kinds are owned by the scheduling layer (internal/sim
// defines one per event family); the kernel only carries them.
type Kind int16

// KindOpaque marks events scheduled without a kind. They fire normally
// but cannot be checkpointed: Snapshot fails on a pending opaque event,
// because there is no record from which to rebuild its closure.
const KindOpaque Kind = 0

// Event is a scheduled occurrence. It is owned by the Simulator; callers
// hold it only to Cancel or Reschedule it or inspect its time.
//
// Events are pooled: once an event fires or is cancelled, its handle is
// dead — the simulator recycles the struct for a future Schedule, so a
// retained dead handle may alias an unrelated live event. Callers must
// drop (nil out) their handle when the event fires or when they cancel
// it. Cancelling the event currently being fired, from inside its own
// handler, is safe: recycling happens only after the handler returns.
type Event struct {
	time    Time
	band    int8
	kind    Kind
	seq     uint64
	index   int // heap index; -1 when not queued
	handler Handler
	data    any
}

// Time returns the virtual time the event is (or was) scheduled for.
func (e *Event) Time() Time { return e.time }

// Kind returns the event's kind tag (KindOpaque for untagged events).
func (e *Event) Kind() Kind { return e.kind }

// Data returns the serializable payload attached at schedule time.
func (e *Event) Data() any { return e.data }

// eventHeap orders events by (time, band, seq): earlier bands fire
// before later bands at the same instant, and scheduling order breaks
// ties within a band.
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	if h[i].band != h[j].band {
		return h[i].band < h[j].band
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// Simulator is the event loop. The zero value is not usable; construct
// with New.
type Simulator struct {
	now     Time
	seq     uint64
	queue   eventHeap
	stopped bool
	fired   uint64
	// pool holds recycled Event structs: events are returned here when
	// they fire or are cancelled and reused by the next schedule, so a
	// steady-state simulation allocates no events at all.
	pool []*Event
}

// New returns an empty simulator with the clock at 0.
func New() *Simulator {
	return &Simulator{}
}

// NewReusing returns an empty simulator that adopts prev's event pool
// and queue storage, so a fresh run starts with the previous run's
// warmed-up capacity instead of growing its own. Any events still
// pending in prev are recycled into the new pool. prev must not be used
// afterwards: its queue is gone and its pooled events now belong to the
// returned simulator.
func NewReusing(prev *Simulator) *Simulator {
	if prev == nil {
		return New()
	}
	s := &Simulator{pool: prev.pool}
	for _, e := range prev.queue {
		s.recycle(e)
	}
	s.queue = prev.queue[:0]
	prev.queue, prev.pool = nil, nil
	prev.stopped = true
	return s
}

// recycle zeroes a dead event (releasing its handler and payload
// references) and returns it to the free pool.
func (s *Simulator) recycle(e *Event) {
	*e = Event{index: -1}
	s.pool = append(s.pool, e)
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Fired returns the number of events executed so far, a cheap progress
// and complexity metric.
func (s *Simulator) Fired() uint64 { return s.fired }

// Pending returns the number of queued events.
func (s *Simulator) Pending() int { return len(s.queue) }

// Schedule enqueues handler to run at absolute time at. Scheduling in
// the past (at < Now) panics: it is always a simulation logic bug and
// silently reordering would corrupt causality.
func (s *Simulator) Schedule(at Time, handler Handler) *Event {
	return s.schedule(at, 0, handler)
}

// ScheduleKind is Schedule with a kind tag and a serializable payload,
// making the event snapshot-able (see Snapshot/Restore). The payload
// must be enough, together with the kind, for the scheduling layer to
// rebuild an equivalent handler on restore.
func (s *Simulator) ScheduleKind(at Time, kind Kind, data any, handler Handler) *Event {
	e := s.schedule(at, 0, handler)
	e.kind, e.data = kind, data
	return e
}

// ScheduleFrontKind is ScheduleKind in the front band: the event fires
// ahead of every event ScheduleKind has queued (or will queue) for the
// same instant. Among front events at one instant, scheduling order
// still breaks ties. The engine uses this for streamed job arrivals:
// with one pending arrival at a time, front scheduling reproduces
// exactly the firing order of the historical design that pre-scheduled
// every arrival first (lowest sequence numbers), keeping streamed
// replays bit-identical to slice replays.
func (s *Simulator) ScheduleFrontKind(at Time, kind Kind, data any, handler Handler) *Event {
	e := s.schedule(at, -1, handler)
	e.kind, e.data = kind, data
	return e
}

func (s *Simulator) schedule(at Time, band int8, handler Handler) *Event {
	if at < s.now {
		panic(fmt.Sprintf("des: scheduling into the past: at=%d now=%d", at, s.now))
	}
	if handler == nil {
		panic("des: nil handler")
	}
	var e *Event
	if n := len(s.pool); n > 0 {
		e = s.pool[n-1]
		s.pool[n-1] = nil
		s.pool = s.pool[:n-1]
		*e = Event{time: at, band: band, seq: s.seq, handler: handler}
	} else {
		e = &Event{time: at, band: band, seq: s.seq, handler: handler}
	}
	s.seq++
	heap.Push(&s.queue, e)
	return e
}

// Cancel removes a pending event and recycles it: the handle is dead
// afterwards and the caller must drop it. Cancelling a handle that was
// already dead (fired or cancelled) and not yet reused is still a
// no-op, but a dead handle held across a later schedule may alias a new
// event, so callers must not rely on the historical
// cancel-anytime-is-safe behavior.
func (s *Simulator) Cancel(e *Event) {
	if e == nil || e.index < 0 {
		return
	}
	heap.Remove(&s.queue, e.index)
	s.recycle(e)
}

// Reschedule moves the pending event e to time at with payload data,
// in place. It keeps e's band, kind and handler and takes the next
// sequence number, so e gets exactly the heap key (time, band, seq)
// that Cancel followed by a schedule of the same band and kind would
// give a new event. Firing order, Snapshot records, the sequence
// counter and the free pool are therefore the same as that pair's,
// and the handle stays live. When at is e's current time the sift is
// O(1) unless a same-instant, same-band event sits below e. A fired or
// cancelled handle panics (a dead handle that has since been reused
// cannot be told apart from a live one; see Event). Rescheduling into
// the past panics like Schedule.
func (s *Simulator) Reschedule(e *Event, at Time, data any) {
	if e == nil || e.index < 0 {
		panic("des: reschedule of a fired or cancelled event")
	}
	if at < s.now {
		panic(fmt.Sprintf("des: rescheduling into the past: at=%d now=%d", at, s.now))
	}
	e.time, e.seq, e.data = at, s.seq, data
	s.seq++
	heap.Fix(&s.queue, e.index)
}

// Step fires the single earliest event. It returns false when the queue
// is empty or the simulator has been stopped. The fired event is
// recycled after its handler returns.
func (s *Simulator) Step() bool {
	if s.stopped || len(s.queue) == 0 {
		return false
	}
	e := heap.Pop(&s.queue).(*Event)
	s.now = e.time
	s.fired++
	e.handler(s.now, e.data)
	s.recycle(e)
	return true
}

// Run executes events until the queue drains, Stop is called, or the
// next event is strictly after until. The clock is left at the time of
// the last fired event (or advanced to until if no event fired at it).
// Pass Infinity to run to completion.
func (s *Simulator) Run(until Time) {
	for !s.stopped && len(s.queue) > 0 && s.queue[0].time <= until {
		s.Step()
	}
	if !s.stopped && s.now < until && until != Infinity {
		s.now = until
	}
}

// RunAll executes events until the queue drains or Stop is called.
func (s *Simulator) RunAll() { s.Run(Infinity) }

// Stop halts the event loop after the current handler returns; pending
// events remain queued but will not fire.
func (s *Simulator) Stop() { s.stopped = true }

// Stopped reports whether Stop has been called.
func (s *Simulator) Stopped() bool { return s.stopped }

// EventRecord is the serializable form of one pending event: everything
// about it except the closure, which the scheduling layer rebuilds from
// (Kind, Data) on restore. Records produced by Snapshot are ordered by
// firing order, which Restore preserves.
type EventRecord struct {
	Time Time
	// Front marks events scheduled via a Front variant (the arrival
	// band); Restore re-schedules them in the same band.
	Front bool
	Kind  Kind
	Data  any
}

// Snapshot returns the pending events as records in firing order —
// the checkpoint half of the queue's event-record design. It fails if
// any pending event is untagged (KindOpaque): such a closure cannot be
// rebuilt from data, so the queue is not checkpointable.
func (s *Simulator) Snapshot() ([]EventRecord, error) {
	evs := append([]*Event(nil), s.queue...)
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.time != b.time {
			return a.time < b.time
		}
		if a.band != b.band {
			return a.band < b.band
		}
		return a.seq < b.seq
	})
	recs := make([]EventRecord, 0, len(evs))
	for _, e := range evs {
		if e.kind == KindOpaque {
			return nil, fmt.Errorf("des: pending opaque event at t=%d cannot be snapshotted (schedule it with ScheduleKind)", e.time)
		}
		recs = append(recs, EventRecord{Time: e.time, Front: e.band < 0, Kind: e.kind, Data: e.data})
	}
	return recs, nil
}

// Restore builds a simulator positioned at now, with the given fired
// count, whose queue holds the recorded events — the restore half of
// the event-record design. recs must be in firing order (as Snapshot
// produces); each is re-scheduled with a fresh sequence number in that
// order, so the relative firing order among restored events, and
// between them and anything scheduled later, matches the original run
// exactly. rebuild maps one record to its handler; returning nil drops
// the record (for restores that deliberately discard an event family).
// The returned slice is aligned with recs — nil where dropped — so
// callers can rewire the event handles they track.
func Restore(now Time, fired uint64, recs []EventRecord, rebuild func(EventRecord) Handler) (*Simulator, []*Event, error) {
	s := &Simulator{now: now, fired: fired}
	events := make([]*Event, len(recs))
	for i, r := range recs {
		if r.Time < now {
			return nil, nil, fmt.Errorf("des: restore: event at t=%d is before the clock t=%d", r.Time, now)
		}
		if r.Kind == KindOpaque {
			return nil, nil, fmt.Errorf("des: restore: opaque event record at t=%d", r.Time)
		}
		h := rebuild(r)
		if h == nil {
			continue
		}
		if r.Front {
			events[i] = s.ScheduleFrontKind(r.Time, r.Kind, r.Data, h)
		} else {
			events[i] = s.ScheduleKind(r.Time, r.Kind, r.Data, h)
		}
	}
	return s, events, nil
}
