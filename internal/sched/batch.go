package sched

import (
	"fmt"
	"math"
	"slices"

	"dismem/internal/cluster"
	"dismem/internal/memmodel"
	"dismem/internal/workload"
)

// BackfillMode selects the backfilling discipline of a Batch scheduler.
type BackfillMode int

const (
	// BackfillNone dispatches strictly in queue order; the first job
	// that cannot start blocks everything behind it.
	BackfillNone BackfillMode = iota
	// BackfillEASY lets later jobs jump ahead if they do not delay the
	// queue head's reservation (aggressive backfilling).
	BackfillEASY
	// BackfillConservative lets jobs jump ahead only if they delay no
	// earlier job's reservation.
	BackfillConservative
)

// String implements fmt.Stringer.
func (m BackfillMode) String() string {
	switch m {
	case BackfillNone:
		return "none"
	case BackfillEASY:
		return "easy"
	case BackfillConservative:
		return "conservative"
	default:
		return fmt.Sprintf("backfill(%d)", int(m))
	}
}

// Batch composes a queue order, a backfill discipline, and a placement
// policy into a scheduler. It is the chassis for every policy in the
// evaluation; the memory-aware contribution plugs in as the Placer.
type Batch struct {
	// PolicyName overrides the derived name when non-empty.
	PolicyName string
	Order      Order
	Backfill   BackfillMode
	Placer     Placer
	// MaxBackfillScan caps how many queued jobs one EASY pass examines
	// behind the head (0 = all). Production schedulers cap this to
	// bound pass latency.
	MaxBackfillScan int
	// MaxReservations caps conservative planning depth (0 = 128).
	MaxReservations int
	// SpillPatience delays spilling: a job that would be placed with
	// dilation > 1 while younger than this many seconds keeps waiting
	// for local capacity instead (0 disables). Jobs past their
	// patience spill normally, so nothing starves.
	SpillPatience int64
	// MaxPerUser caps concurrently running jobs per user (0 =
	// unlimited); throttled jobs are skipped, not treated as blocking.
	// Jobs started earlier in the same pass count toward the cap.
	MaxPerUser int

	// st is everything a Batch carries from one pass to the next. A
	// Batch instance is owned by one run at a time (see
	// sim.Overrides.Scheduler).
	st passState
}

// passState is a Batch's state between passes: scratch reused so the
// steady-state pass allocates nothing, and what the previous pass left
// for the next one to resume from (see Pass).
type passState struct {
	// q is the queue sorted by Order. After a pass it holds every job
	// of that pass's ctx.Queue; a resumed pass appends the new ones.
	q []*workload.Job
	// out is the dispatch list Pass returns (valid until the next Pass,
	// see Scheduler).
	out []Dispatch
	// prof is the conservative planning profile. After a pass that
	// started nothing it holds every reservation that pass made.
	prof Profile

	// m and version identify the machine state the previous pass ended
	// on; tail is the last job of its ctx.Queue.
	m       *cluster.Machine
	version uint64
	tail    *workload.Job
	// resumable reports that the previous pass may be resumed: see
	// Pass for the conditions.
	resumable bool
	// timed records a decision of the current pass that may come out
	// differently at a later Now: a SpillPatience skip, or a
	// conservative reservation held at Now.
	timed bool
	// head is the EASY blocked head's index in q (len(q) when no job
	// blocked), and scanned counts the backfill candidates examined
	// behind it, as MaxBackfillScan counts them.
	head, scanned int
	// full and resumed count the passes that ran in full and those
	// that resumed their predecessor: counters for tests.
	full, resumed int
}

// tryPlan applies the chassis-level admission knobs around the
// placement policy. blocking reports whether a nil plan represents a
// genuine resource block (an EASY head candidate) rather than a policy
// choice to skip this job for now.
func (b *Batch) tryPlan(ctx *Context, job *workload.Job) (plan *Plan, blocking bool) {
	if b.MaxPerUser > 0 && ctx.RunningOfUser(job.User) >= b.MaxPerUser {
		return nil, false
	}
	p := b.Placer.Plan(job, ctx.Machine, ctx.Model)
	if p == nil {
		return nil, true
	}
	if b.SpillPatience > 0 && p.Dilation > 1 && ctx.Now-job.Submit < b.SpillPatience {
		b.st.timed = true
		return nil, false
	}
	return p, false
}

// Name implements Scheduler.
func (b *Batch) Name() string {
	if b.PolicyName != "" {
		return b.PolicyName
	}
	return fmt.Sprintf("%s+%s+%s", b.Order.Name(), b.Backfill, b.Placer.Name())
}

// Feasible implements Scheduler by delegating to the placement policy.
func (b *Batch) Feasible(job *workload.Job, m *cluster.Machine, model memmodel.Model) bool {
	return b.Placer.Feasible(job, m, model)
}

// Pass implements Scheduler.
//
// A pass resumes the previous one, planning only the newly queued jobs,
// when nothing the skipped jobs' outcomes depend on has changed
// (DESIGN.md §6, "Incremental pass contract"):
//
//  1. the machine is the same and its Version has not moved, so no job
//     started, ended or was requeued and no node or pool changed;
//  2. the previous pass started nothing;
//  3. it made no time-dependent decision (see passState.timed);
//  4. under none or EASY, it found a blocked head;
//  5. the order is FCFS, so old jobs keep their ranks;
//  6. ctx.Queue only grew, and every new job sorts after the old ones;
//  7. under conservative backfill, no running job's guaranteed end is
//     at or before Now.
//
// Otherwise the pass runs in full. With ctx.CheckInvariants set, every
// resumed pass is also run in full on a clone of the machine, and a
// difference panics.
func (b *Batch) Pass(ctx *Context) []Dispatch {
	from := b.resumeFrom(ctx)
	var full []Dispatch
	if from >= 0 && ctx.CheckInvariants {
		full = b.fullPassOnClone(ctx)
	}
	if from < 0 {
		b.st.full++
		b.st.q = append(b.st.q[:0], ctx.Queue...)
		b.Order.Sort(ctx.Now, b.st.q)
	}
	b.st.timed = false
	out := b.pass(ctx, from)
	if from >= 0 && ctx.CheckInvariants {
		checkSameDispatches(out, full)
	}
	b.st.out = out

	_, fcfs := b.Order.(FCFS)
	b.st.m, b.st.version = ctx.Machine, ctx.Machine.Version()
	b.st.tail = nil
	if n := len(ctx.Queue); n > 0 {
		b.st.tail = ctx.Queue[n-1]
	}
	b.st.resumable = fcfs && len(out) == 0 && !b.st.timed && b.st.tail != nil &&
		(b.Backfill == BackfillConservative || b.st.head < len(b.st.q))
	return out
}

// resumeFrom decides whether this pass resumes the previous one (see
// Pass). If it does, it appends the newly queued jobs to the sorted
// queue and returns the position of the first; otherwise it returns -1.
func (b *Batch) resumeFrom(ctx *Context) int {
	st := &b.st
	old := len(st.q)
	if !st.resumable || st.m != ctx.Machine || st.version != ctx.Machine.Version() ||
		len(ctx.Queue) < old || ctx.Queue[old-1] != st.tail {
		return -1
	}
	if b.Backfill == BackfillConservative {
		if byEnd := ctx.ByEnd(); len(byEnd) > 0 && byEnd[0].GuaranteedEnd() <= ctx.Now {
			return -1
		}
	}
	st.q = append(st.q, ctx.Queue[old:]...)
	FCFS{}.Sort(ctx.Now, st.q[old:])
	if len(st.q) > old && fcfsCompare(st.q[old-1], st.q[old]) > 0 {
		return -1
	}
	st.resumed++
	return old
}

// fullPassOnClone runs this pass in full, on a clone of the machine as
// the pass finds it, by a Batch of the same configuration with fresh
// scratch: the reference a resumed pass must match.
func (b *Batch) fullPassOnClone(ctx *Context) []Dispatch {
	ref := *b
	ref.st = passState{}
	rctx := &Context{
		Now: ctx.Now, Machine: ctx.Machine.Clone(), Model: ctx.Model,
		Queue: ctx.Queue, Running: ctx.Running, ExtendLimit: ctx.ExtendLimit,
		ByEndFn: ctx.ByEndFn,
	}
	return ref.Pass(rctx)
}

// checkSameDispatches panics unless a resumed pass dispatched the same
// jobs, in the same order and with the same placements, as the full
// pass it stands for.
func checkSameDispatches(resumed, full []Dispatch) {
	if !sameDispatches(resumed, full) {
		panic(fmt.Sprintf("sched: resumed pass dispatched %v, a full pass dispatches %v",
			dispatchIDs(resumed), dispatchIDs(full)))
	}
}

// sameDispatches reports whether a and b dispatch the same jobs, in the
// same order, with the same shares and dilations.
func sameDispatches(a, b []Dispatch) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Job != b[i].Job || a[i].Plan.Dilation != b[i].Plan.Dilation ||
			!slices.Equal(a[i].Plan.Alloc.Shares, b[i].Plan.Alloc.Shares) {
			return false
		}
	}
	return true
}

// dispatchIDs lists the dispatched job IDs in dispatch order.
func dispatchIDs(ds []Dispatch) []int {
	ids := make([]int, len(ds))
	for i, d := range ds {
		ids[i] = d.Job.ID
	}
	return ids
}

// pass runs one pass over the sorted queue, in full (from < 0) or
// resumed from queue position from.
func (b *Batch) pass(ctx *Context, from int) []Dispatch {
	q, out := b.st.q, b.st.out[:0]
	if b.Backfill == BackfillConservative {
		if from < 0 {
			b.resetProfile(ctx)
			from = 0
		}
		return b.reserve(ctx, q, from, out)
	}
	if from < 0 {
		out, b.st.head = b.dispatchInOrder(ctx, q, out)
		b.st.scanned = 0
		from = b.st.head + 1
	}
	if b.Backfill == BackfillNone || b.st.head >= len(q) {
		return out
	}
	return b.backfill(ctx, q, from, out)
}

// commit commits plan for job through the machine's allocation free
// list and returns the dispatch carrying the committed (machine-owned)
// copy. The job counts toward its user's MaxPerUser for the rest of the
// pass. A commit failure is a planner bug, not a recoverable condition.
func (b *Batch) commit(ctx *Context, job *workload.Job, plan *Plan) Dispatch {
	alloc, err := ctx.Machine.AllocateCopy(plan.Alloc)
	if err != nil {
		panic(fmt.Sprintf("sched: committing plan for job %d: %v", job.ID, err))
	}
	if b.MaxPerUser > 0 {
		ctx.started(job.User)
	}
	return Dispatch{Job: job, Plan: Plan{Alloc: alloc, Dilation: plan.Dilation}}
}

// dispatchInOrder starts jobs in queue order until the first one that
// is blocked (BackfillNone and the first EASY phase), and returns the
// blocked head's index, len(q) when no job blocked.
func (b *Batch) dispatchInOrder(ctx *Context, q []*workload.Job, out []Dispatch) ([]Dispatch, int) {
	for i, job := range q {
		plan, blocking := b.tryPlan(ctx, job)
		if plan == nil {
			if blocking {
				return out, i
			}
			continue // throttled or patient: does not block the queue
		}
		out = append(out, b.commit(ctx, job, plan))
	}
	return out, len(q)
}

// backfill is EASY's second phase: it scans the candidates behind the
// blocked head from queue position from and starts any that cannot
// delay the head's reservation.
func (b *Batch) backfill(ctx *Context, q []*workload.Job, from int, out []Dispatch) []Dispatch {
	shadow, extraNodes, extraPool := b.headReservation(ctx, q[b.st.head])
	for _, cand := range q[from:] {
		if b.MaxBackfillScan > 0 && b.st.scanned >= b.MaxBackfillScan {
			break
		}
		b.st.scanned++
		// No plan can start this candidate: its limit is at least its
		// estimate, so it runs past the shadow, and it is wider than
		// the nodes the head leaves spare there.
		if ctx.Now+cand.Estimate > shadow && cand.Nodes > extraNodes {
			continue
		}
		// Nor one wider than the free nodes: every placer returns nil
		// then (the Placer.Plan contract), and a nil plan here has no
		// side effect.
		if cand.Nodes > ctx.Machine.FreeNodes() {
			if ctx.CheckInvariants && b.Placer.Plan(cand, ctx.Machine, ctx.Model) != nil {
				panic(fmt.Sprintf("sched: placer %s planned job %d (%d nodes) on %d free nodes",
					b.Placer.Name(), cand.ID, cand.Nodes, ctx.Machine.FreeNodes()))
			}
			continue
		}
		plan, _ := b.tryPlan(ctx, cand)
		if plan == nil {
			continue
		}
		limit := ctx.Limit(cand, plan.Dilation)
		endsBeforeShadow := ctx.Now+limit <= shadow
		remote := plan.Alloc.RemoteMiB()
		if !endsBeforeShadow {
			if cand.Nodes > extraNodes || remote > extraPool {
				continue
			}
		}
		out = append(out, b.commit(ctx, cand, plan))
		if !endsBeforeShadow {
			extraNodes -= cand.Nodes
			extraPool -= remote
		}
	}
	return out
}

// headReservation computes the EASY shadow time for the blocked queue
// head — the earliest instant aggregate free nodes and pool memory
// cover the head's minimal needs — plus the extra capacity that will
// remain at that instant, which backfilled jobs running past the shadow
// may consume.
func (b *Batch) headReservation(ctx *Context, head *workload.Job) (shadow int64, extraNodes int, extraPool int64) {
	needNodes := head.Nodes
	needPool := RemoteNeed(head, ctx.Machine)

	freeNodes, freePool := freeCapacity(ctx.Machine)
	if freeNodes >= needNodes && freePool >= needPool {
		// The head fits by aggregate counts but exact placement failed
		// (per-rack fragmentation). Treat now as the shadow.
		return ctx.Now, freeNodes - needNodes, freePool - needPool
	}

	for _, r := range ctx.ByEnd() {
		freeNodes += len(r.Alloc.Shares)
		freePool += r.Alloc.RemoteMiB()
		if freeNodes >= needNodes && freePool >= needPool {
			return r.GuaranteedEnd(), freeNodes - needNodes, freePool - needPool
		}
	}
	// Unsatisfiable even with everything free: the head is infeasible
	// for this machine (the engine rejects such jobs at submission, so
	// this is defensive). No backfill.
	return math.MaxInt64, 0, 0
}

// freeCapacity returns m's free nodes and the sum of its pools' free
// MiB.
func freeCapacity(m *cluster.Machine) (nodes int, pool int64) {
	for _, p := range m.Pools() {
		pool += p.FreeMiB()
	}
	return m.FreeNodes(), pool
}

// resetProfile starts the conservative planning profile at Now from the
// machine's free capacity and the running jobs' guaranteed ends.
func (b *Batch) resetProfile(ctx *Context) {
	prof := &b.st.prof
	nodes, pool := freeCapacity(ctx.Machine)
	prof.Reset(ctx.Now, nodes, pool)
	// Feeding releases in ascending end order keeps every AddRelease an
	// O(1) append to the profile tail instead of a mid-slice insert.
	for _, r := range ctx.ByEnd() {
		prof.AddRelease(r.GuaranteedEnd(), len(r.Alloc.Shares), r.Alloc.RemoteMiB())
	}
}

// reserve is conservative backfill's body: it plans the queued jobs
// from position from, up to MaxReservations positions in all, into the
// profile, dispatching those whose reservation starts now and an exact
// placement exists.
//
// Planning stops at the profile's wall (DESIGN.md §6): a job whose
// window would cross it gets no reservation, and the pass ends once the
// wall reaches Now. No dropped reservation could start before the wall,
// so none could ever overlap a window that starts now.
func (b *Batch) reserve(ctx *Context, q []*workload.Job, from int, out []Dispatch) []Dispatch {
	maxRes := b.MaxReservations
	if maxRes <= 0 {
		maxRes = 128
	}
	prof := &b.st.prof
	for k := from; k < min(len(q), maxRes) && prof.wall > ctx.Now; k++ {
		job := q[k]
		if b.MaxPerUser > 0 && ctx.RunningOfUser(job.User) >= b.MaxPerUser {
			continue // throttled: try again next pass, no reservation
		}
		needPool := RemoteNeed(job, ctx.Machine)
		dur := ctx.Limit(job, b.Placer.PlanDilation(job, ctx.Machine, ctx.Model))
		start := prof.EarliestFit(ctx.Now, dur, job.Nodes, needPool, prof.wall)
		if start == ctx.Now {
			if plan, _ := b.tryPlan(ctx, job); plan != nil {
				d := b.commit(ctx, job, plan)
				end := ctx.Now + ctx.Limit(job, plan.Dilation)
				prof.Reserve(ctx.Now, end, job.Nodes, d.Plan.Alloc.RemoteMiB())
				out = append(out, d)
				continue
			}
			// Aggregate capacity exists but the placement is
			// fragmented; hold the reservation at now so no later job
			// overtakes it (conservative guarantee). A later pass may
			// place it, so this pass cannot be resumed.
			b.st.timed = true
		}
		if start < math.MaxInt64 {
			prof.Reserve(start, start+dur, job.Nodes, needPool)
		}
	}
	return out
}
