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
type Profile struct {
	points []profilePoint
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
	copy(p.points[i+1:], p.points[i:])
	p.points[i] = profilePoint{t: t, nodes: prev.nodes, pool: prev.pool}
	return i
}

// AddRelease increases capacity by (nodes, pool) from time t onward —
// a running job's guaranteed end.
func (p *Profile) AddRelease(t int64, nodes int, pool int64) {
	if t < p.points[0].t {
		t = p.points[0].t
	}
	i := p.split(t)
	for ; i < len(p.points); i++ {
		p.points[i].nodes += nodes
		p.points[i].pool += pool
	}
}

// Reserve decreases capacity by (nodes, pool) on [start, end). Capacity
// may go negative when an exact placement used more than the planner's
// minimal need; negative capacity simply blocks later reservations.
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
		p.points[i].nodes -= nodes
		p.points[i].pool -= pool
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
// stays available for dur seconds, or math.MaxInt64 if it never does.
// dur must be > 0.
//
// It is one forward pass over the breakpoints. The candidate start
// begins at from; when an interval inside its window lacks capacity,
// the candidate moves to the next breakpoint, since capacity only
// changes there and every earlier start overlaps the short interval.
func (p *Profile) EarliestFit(from, dur int64, nodes int, pool int64) int64 {
	if dur <= 0 {
		panic(fmt.Sprintf("sched: EarliestFit with dur=%d", dur))
	}
	pts := p.points
	if from < pts[0].t {
		from = pts[0].t
	}
	start := from
	i := sort.Search(len(pts), func(i int) bool { return pts[i].t > from }) - 1
	for ; i < len(pts) && pts[i].t < start+dur; i++ {
		if pts[i].nodes < nodes || pts[i].pool < pool {
			if i+1 == len(pts) {
				// Capacity after the last breakpoint is constant; if
				// the tail does not fit, nothing ever will.
				return math.MaxInt64
			}
			start = pts[i+1].t
		}
	}
	return start
}
