package sched_test

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"dismem/internal/cluster"
	"dismem/internal/memmodel"
	"dismem/internal/sched"
	"dismem/internal/spec"
	"dismem/internal/stats"
	"dismem/internal/workload"
)

// TestWallPlanningMatchesReference requires conservative passes that
// stop planning at the profile's wall to decide exactly as the planner
// before them, which rebuilds the whole profile and keeps every
// reservation (sched.PassAgainstReference). Each seeded fixture is a
// random machine (1–16 racks, rack or global pools) with 0–60 running
// jobs and 1–200 queued ones, full-machine jobs among them, planned by a
// random conservative spec over every order and placer, with and
// without maxperuser, patience and maxres. A first pass is compared;
// then the dispatched jobs run, new jobs arrive, and a second pass at a
// later Now, resumed where the batch allows it, is compared again.
// Durations are multiples of 100 s, so windows often end exactly at the
// wall. The coverage counts fail the test if a class stops occurring.
func TestWallPlanningMatchesReference(t *testing.T) {
	const fixtures = 2000
	rng := stats.NewRNG(21)
	var seen struct {
		passes, wallAtNow, wallAtInf, dropped, atWall, resumed, dispatched, held int
	}
	for n := 0; n < fixtures; n++ {
		f := newWallFixture(rng)
		b, err := spec.Parse(f.spec)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 1; pass <= 2; pass++ {
			if pass == 2 {
				f.advance(rng)
			}
			ctx := &sched.Context{
				Now: f.now, Machine: f.m, Model: f.model, Queue: f.queue,
				Running: f.running, ExtendLimit: f.extend, CheckInvariants: true,
			}
			out, w, err := sched.PassAgainstReference(b, ctx)
			if err != nil {
				t.Fatalf("fixture %d (%s), pass %d at %d, %d racks x %d nodes, %d running, %d queued: %v",
					n, f.spec, pass, f.now, f.mc.Racks, f.mc.NodesPerRack, len(f.running), len(f.queue), err)
			}
			f.started(ctx, out)
			seen.passes++
			for _, c := range []struct {
				on bool
				n  *int
			}{
				{w.WallAtNow, &seen.wallAtNow}, {w.WallAtInf, &seen.wallAtInf},
				{w.Dropped > 0, &seen.dropped}, {w.AtWall > 0, &seen.atWall},
				{w.Resumed, &seen.resumed}, {w.Dispatched, &seen.dispatched}, {w.Held, &seen.held},
			} {
				if c.on {
					*c.n++
				}
			}
		}
	}
	t.Logf("coverage over %d passes: %+v", seen.passes, seen)
	for name, c := range map[string]int{
		"the wall at Now": seen.wallAtNow, "the wall at infinity": seen.wallAtInf,
		"dropped reservations": seen.dropped, "windows ending at the wall": seen.atWall,
		"resumed passes": seen.resumed, "dispatches": seen.dispatched, "reservations held at Now": seen.held,
	} {
		if c == 0 {
			t.Errorf("no pass showed %s", name)
		}
	}
}

// wallFixture is one random conservative-backfill situation: a machine
// with its running jobs, a queue, and a scheduler spec.
type wallFixture struct {
	spec    string
	mc      cluster.Config
	m       *cluster.Machine
	model   memmodel.Model
	extend  bool
	now     int64
	running []sched.RunningJob
	queue   []*workload.Job
	nextID  int
	// probe is a scheduler of the fixture's spec that only answers
	// Feasible: like the engine, the fixture queues no job that could
	// never run.
	probe *sched.Batch
}

func newWallFixture(rng *stats.RNG) *wallFixture {
	f := &wallFixture{now: 100_000, nextID: 1, extend: rng.Intn(2) == 0}
	mc := cluster.Config{
		Racks: 1 + rng.Intn(16), NodesPerRack: 1 + rng.Intn(8), CoresPerNode: 8, LocalMemMiB: 1000,
		Topology: cluster.TopologyRack, FabricGiBps: 10, TrafficGiBpsPerNode: 2,
	}
	mc.PoolMiB = int64(mc.NodesPerRack) * (1 + rng.Int63n(1000))
	if rng.Intn(2) == 0 {
		mc.Topology = cluster.TopologyGlobal
		mc.PoolMiB *= int64(mc.Racks)
		mc.FabricGiBps *= float64(mc.Racks)
	}
	f.mc, f.m = mc, cluster.MustNew(mc)
	f.model = memmodel.Bandwidth{Beta: 1, Gamma: 1}
	if rng.Intn(2) == 0 {
		f.model = memmodel.Linear{Beta: 0.5}
	}

	orders := []string{"fcfs", "sjf", "wfp", "largest"}
	placers := []string{"local", "spill", "memaware"}
	f.spec = fmt.Sprintf("order=%s backfill=conservative placer=%s",
		orders[rng.Intn(len(orders))], placers[rng.Intn(len(placers))])
	if rng.Intn(4) == 0 {
		f.spec += fmt.Sprintf(" maxperuser=%d", 1+rng.Intn(3))
	}
	if rng.Intn(4) == 0 {
		f.spec += fmt.Sprintf(" patience=%d", 100*(1+rng.Intn(20)))
	}
	if rng.Intn(4) == 0 {
		f.spec += fmt.Sprintf(" maxres=%d", 1+rng.Intn(64))
	}

	// Running jobs are placed by Spill, so some hold pool memory; their
	// guaranteed ends fall from 100 s before Now to 3,000 s after it.
	total := mc.TotalNodes()
	for i := rng.Intn(61); i > 0; i-- {
		j := f.job(rng, total)
		p := (&sched.Spill{}).Plan(j, f.m, f.model)
		if p == nil {
			continue
		}
		alloc, err := f.m.AllocateCopy(p.Alloc)
		if err != nil {
			panic(err)
		}
		end := f.now + 100*(rng.Int63n(31)-1)
		f.running = append(f.running, sched.RunningJob{Job: j, Start: end - j.Estimate, Limit: j.Estimate, Alloc: alloc})
	}
	var err error
	if f.probe, err = spec.Parse(f.spec); err != nil {
		panic(err)
	}
	for n := 1 + rng.Intn(200); len(f.queue) < n; {
		if j := f.job(rng, total); f.probe.Feasible(j, f.m, f.model) {
			j.Submit = f.now - 100*rng.Int63n(100)
			f.queue = append(f.queue, j)
		}
	}
	sched.FCFS{}.Sort(f.now, f.queue) // arrival order
	return f
}

// job draws a job: one in ten takes the whole machine, the rest up to
// half of it; one in four needs more memory per node than a node has.
func (f *wallFixture) job(rng *stats.RNG, total int) *workload.Job {
	j := &workload.Job{ID: f.nextID, User: rng.Intn(6), MemPerNode: 100 + rng.Int63n(900)}
	f.nextID++
	j.Nodes = 1 + rng.Intn(max(1, total/2))
	if rng.Intn(10) == 0 {
		j.Nodes = total
	}
	if rng.Intn(4) == 0 {
		j.MemPerNode += 1000 + rng.Int63n(1000)
	}
	j.Estimate = 100 * (1 + rng.Int63n(30))
	j.BaseRuntime = j.Estimate
	return j
}

// started moves the jobs a pass dispatched from the queue to the running
// set, as the engine does.
func (f *wallFixture) started(ctx *sched.Context, out []sched.Dispatch) {
	for _, d := range out {
		f.running = append(f.running, sched.RunningJob{
			Job: d.Job, Start: f.now, Limit: ctx.Limit(d.Job, d.Plan.Dilation), Alloc: d.Plan.Alloc,
		})
		f.queue = slices.DeleteFunc(f.queue, func(j *workload.Job) bool { return j == d.Job })
	}
	slices.SortFunc(f.running, func(a, b sched.RunningJob) int { return cmp.Compare(a.Job.ID, b.Job.ID) })
}

// advance moves Now on, half the time by less than the 100 s step of
// the guaranteed ends so that the next pass can resume, and appends up
// to 20 arrivals submitted since the last pass.
func (f *wallFixture) advance(rng *stats.RNG) {
	prev := f.now
	if rng.Intn(2) == 0 {
		f.now += 1 + rng.Int63n(99)
	} else {
		f.now += 100 * (1 + rng.Int63n(20))
	}
	old := len(f.queue)
	f.queue = slices.Clone(f.queue)
	for i := rng.Intn(21); i > 0; i-- {
		if j := f.job(rng, f.mc.TotalNodes()); f.probe.Feasible(j, f.m, f.model) {
			j.Submit = prev + 1 + rng.Int63n(f.now-prev)
			f.queue = append(f.queue, j)
		}
	}
	sched.FCFS{}.Sort(f.now, f.queue[old:])
}
