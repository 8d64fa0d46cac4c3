package sched

import (
	"fmt"
	"math"
	"sort"
)

// Profile tracks aggregate free capacity — whole nodes and pool MiB —
// over future time, the planning structure behind conservative
// backfilling. It deliberately aggregates pool capacity across racks:
// reservations are made against totals, while actual dispatch uses
// exact per-rack placement. This is the standard planning approximation
// in backfill simulators; fragmentation can delay an individual start
// but never over-commits the machine, because dispatch re-validates.
//
// The profile also keeps its wall: the time of the first breakpoint at
// which no node is free, math.MaxInt64 while every interval has one.
// Every job needs a node, so no window that reaches the wall fits, and
// a planner that only takes capacity away never sees the wall move
// later (DESIGN.md §6).
type Profile struct {
	points []profilePoint
	wall   int64

	// searches counts EarliestFit calls, visited the breakpoints their
	// scans examine, and moved the breakpoints splits shift: plain
	// counters that tests read and no run does.
	searches, visited, moved int
}

type profilePoint struct {
	t     int64
	nodes int
	pool  int64
}

// NewProfile starts a profile at time now with the given free capacity,
// which persists to infinity until modified.
func NewProfile(now int64, freeNodes int, freePool int64) *Profile {
	p := &Profile{}
	p.Reset(now, freeNodes, freePool)
	return p
}

// Reset re-initializes the profile in place, reusing its breakpoint
// storage: the allocation-free equivalent of NewProfile for planners
// that keep one profile across passes.
func (p *Profile) Reset(now int64, freeNodes int, freePool int64) {
	p.points = append(p.points[:0], profilePoint{t: now, nodes: freeNodes, pool: freePool})
	p.wall = math.MaxInt64
	if freeNodes <= 0 {
		p.wall = now
	}
}

// split ensures a breakpoint exists at time t (t must be >= the first
// point) and returns its index.
func (p *Profile) split(t int64) int {
	i := sort.Search(len(p.points), func(i int) bool { return p.points[i].t >= t })
	if i < len(p.points) && p.points[i].t == t {
		return i
	}
	// Capacity at t is inherited from the previous interval.
	prev := p.points[i-1]
	p.points = append(p.points, profilePoint{})
	p.moved += copy(p.points[i+1:], p.points[i:])
	p.points[i] = profilePoint{t: t, nodes: prev.nodes, pool: prev.pool}
	return i
}

// AddRelease increases capacity by (nodes, pool) from time t onward —
// a running job's guaranteed end. Every breakpoint from t on is
// updated, so the wall, if it lies there, is found again among them.
func (p *Profile) AddRelease(t int64, nodes int, pool int64) {
	if t < p.points[0].t {
		t = p.points[0].t
	}
	i := p.split(t)
	if p.wall >= p.points[i].t {
		p.wall = math.MaxInt64
	}
	for ; i < len(p.points); i++ {
		pt := &p.points[i]
		pt.nodes += nodes
		pt.pool += pool
		if pt.nodes <= 0 && pt.t < p.wall {
			p.wall = pt.t
		}
	}
}

// Reserve decreases capacity by (nodes, pool) on [start, end). Capacity
// may go negative when an exact placement used more than the planner's
// minimal need; negative capacity simply blocks later reservations.
// nodes must not be negative: capacity is only taken away, so the wall
// can only move earlier, to a breakpoint of the window.
//
// The part of the window before the profile's origin is dropped, so a
// window that ends at or before the origin is a no-op. Splitting at end
// inserts after start's breakpoint, so start's index stays valid.
func (p *Profile) Reserve(start, end int64, nodes int, pool int64) {
	if start < p.points[0].t {
		start = p.points[0].t
	}
	if end <= start {
		return
	}
	i := p.split(start)
	j := len(p.points)
	if end < math.MaxInt64 {
		j = p.split(end)
	}
	for ; i < j; i++ {
		pt := &p.points[i]
		pt.nodes -= nodes
		pt.pool -= pool
		if pt.nodes <= 0 && pt.t < p.wall {
			p.wall = pt.t
		}
	}
}

// CapacityAt returns the free capacity at time t.
func (p *Profile) CapacityAt(t int64) (nodes int, pool int64) {
	i := sort.Search(len(p.points), func(i int) bool { return p.points[i].t > t })
	if i == 0 {
		return p.points[0].nodes, p.points[0].pool
	}
	pt := p.points[i-1]
	return pt.nodes, pt.pool
}

// EarliestFit returns the earliest time >= from at which (nodes, pool)
// stays available for dur seconds and the window ends by wall, or
// math.MaxInt64 if no such time exists. dur must be > 0; wall
// math.MaxInt64 bounds nothing. Its answer is the unbounded search's
// answer s when s+dur <= wall, and math.MaxInt64 otherwise.
//
// It is one forward pass over the breakpoints. The candidate start
// begins at from; when an interval inside its window lacks capacity,
// the candidate moves to the next breakpoint, since capacity only
// changes there and every earlier start overlaps the short interval.
// Candidates only move later, so the search gives up as soon as one's
// window ends past the wall.
func (p *Profile) EarliestFit(from, dur int64, nodes int, pool, wall int64) int64 {
	if dur <= 0 {
		panic(fmt.Sprintf("sched: EarliestFit with dur=%d", dur))
	}
	p.searches++
	pts := p.points
	if from < pts[0].t {
		from = pts[0].t
	}
	if from+dur > wall {
		return math.MaxInt64
	}
	start := from
	i := sort.Search(len(pts), func(i int) bool { return pts[i].t > from }) - 1
	first := i
	for ; i < len(pts) && pts[i].t < start+dur; i++ {
		if pts[i].nodes < nodes || pts[i].pool < pool {
			// Capacity after the last breakpoint is constant; if the
			// tail does not fit, nothing ever will. Nor does any
			// candidate once the next one's window crosses the wall.
			if i+1 == len(pts) || pts[i+1].t+dur > wall {
				p.visited += i + 1 - first
				return math.MaxInt64
			}
			start = pts[i+1].t
		}
	}
	p.visited += i - first
	return start
}
