package sched

import (
	"fmt"
	"math"
	"slices"
)

// referencePass is conservative backfill's full pass as it was before
// planning stopped at the wall, kept as the oracle for the bounded
// planner: it sorts the whole queue, rebuilds the profile, searches
// without a wall and keeps every reservation. It runs on a clone of
// ctx.Machine with a Batch of b's configuration and fresh scratch, so
// ctx is left as it was. dropped counts the reservations whose window
// crosses the profile's wall as it stands when they are made: those the
// bounded planner does not make; atWall counts the windows that end
// exactly at the wall, which it keeps.
func referencePass(b *Batch, ctx *Context) (out []Dispatch, held bool, prof *Profile, dropped, atWall int) {
	ref := *b
	ref.st = passState{}
	rctx := &Context{
		Now: ctx.Now, Machine: ctx.Machine.Clone(), Model: ctx.Model,
		Queue: ctx.Queue, Running: ctx.Running, ExtendLimit: ctx.ExtendLimit,
		ByEndFn: ctx.ByEndFn,
	}
	q := slices.Clone(ctx.Queue)
	b.Order.Sort(ctx.Now, q)
	nodes, pool := freeCapacity(rctx.Machine)
	prof = NewProfile(ctx.Now, nodes, pool)
	for _, r := range rctx.ByEnd() {
		prof.AddRelease(r.GuaranteedEnd(), len(r.Alloc.Shares), r.Alloc.RemoteMiB())
	}
	maxRes := b.MaxReservations
	if maxRes <= 0 {
		maxRes = 128
	}
	for _, job := range q[:min(len(q), maxRes)] {
		if b.MaxPerUser > 0 && rctx.RunningOfUser(job.User) >= b.MaxPerUser {
			continue
		}
		needPool := RemoteNeed(job, rctx.Machine)
		dur := rctx.Limit(job, b.Placer.PlanDilation(job, rctx.Machine, rctx.Model))
		start := prof.EarliestFit(ctx.Now, dur, job.Nodes, needPool, math.MaxInt64)
		if start == ctx.Now {
			if plan, _ := ref.tryPlan(rctx, job); plan != nil {
				d := ref.commit(rctx, job, plan)
				end := ctx.Now + rctx.Limit(job, plan.Dilation)
				prof.Reserve(ctx.Now, end, job.Nodes, d.Plan.Alloc.RemoteMiB())
				out = append(out, d)
				continue
			}
			held = true
		}
		if start < math.MaxInt64 {
			switch {
			case start+dur > prof.wall:
				dropped++
			case start+dur == prof.wall:
				atWall++
			}
			prof.Reserve(start, start+dur, job.Nodes, needPool)
		}
	}
	return out, held, prof, dropped, atWall
}

// WallPass is what one pass checked against the reference planner
// showed, for the differential test's coverage counts.
type WallPass struct {
	// Dispatched and Held report that the pass started a job and that
	// it held a reservation at Now; Resumed that it resumed the pass
	// before it.
	Dispatched, Held, Resumed bool
	// WallAtNow and WallAtInf report where the wall stood when the pass
	// ended: at or before Now, or nowhere.
	WallAtNow, WallAtInf bool
	// Dropped counts the reference's reservations the pass did not
	// make, and AtWall those it made whose window ends at the wall.
	Dropped, AtWall int
}

// PassAgainstReference runs one pass of b on ctx and the reference
// planner on a clone of the machine as the pass finds it, and returns
// b's dispatches and an error naming the first difference in the
// dispatches (job, shares, dilation), the held-at-Now flag, the wall,
// or the free capacity at any breakpoint of either profile before the
// wall. It also checks the profile's maintained wall against a scan.
// b must plan with conservative backfill.
func PassAgainstReference(b *Batch, ctx *Context) ([]Dispatch, WallPass, error) {
	refOut, refHeld, refProf, dropped, atWall := referencePass(b, ctx)
	resumed := b.st.resumed
	out := b.Pass(ctx)
	prof := &b.st.prof
	w := WallPass{
		Dispatched: len(out) > 0, Held: b.st.timed, Resumed: b.st.resumed > resumed,
		WallAtNow: prof.wall <= ctx.Now, WallAtInf: prof.wall == math.MaxInt64,
		Dropped: dropped, AtWall: atWall,
	}
	if !sameDispatches(out, refOut) {
		return out, w, fmt.Errorf("dispatched %v, reference %v", dispatchIDs(out), dispatchIDs(refOut))
	}
	if b.st.timed != refHeld {
		return out, w, fmt.Errorf("held at Now: %v, reference %v", b.st.timed, refHeld)
	}
	if scan := scanWall(prof); prof.wall != scan {
		return out, w, fmt.Errorf("maintained wall %d, a scan finds %d", prof.wall, scan)
	}
	wall := max(prof.wall, ctx.Now)
	if ref := max(scanWall(refProf), ctx.Now); ref != wall {
		return out, w, fmt.Errorf("wall %d, reference %d", wall, ref)
	}
	for _, p := range [2]*Profile{prof, refProf} {
		for _, pt := range p.points {
			if pt.t >= wall {
				break
			}
			at := max(pt.t, ctx.Now)
			n, pl := prof.CapacityAt(at)
			rn, rpl := refProf.CapacityAt(at)
			if n != rn || pl != rpl {
				return out, w, fmt.Errorf("capacity at %d (wall %d): (%d, %d), reference (%d, %d)",
					at, wall, n, pl, rn, rpl)
			}
		}
	}
	return out, w, nil
}

// scanWall finds p's wall from scratch: the first breakpoint without a
// free node.
func scanWall(p *Profile) int64 {
	for _, pt := range p.points {
		if pt.nodes <= 0 {
			return pt.t
		}
	}
	return math.MaxInt64
}
