package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dismem"
)

func TestCellRunBasic(t *testing.T) {
	o := Options{Jobs: 150, Seeds: 2}
	agg, err := Cell{Policy: "memaware"}.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.Reports) != 2 {
		t.Fatalf("%d reports for 2 seeds", len(agg.Reports))
	}
	if agg.StoppedRuns != 0 {
		t.Fatalf("%d stopped runs without a StopWhen predicate", agg.StoppedRuns)
	}
	if agg.Jobs == 0 {
		t.Fatal("no jobs aggregated")
	}
}

func TestCellStopWhenAborts(t *testing.T) {
	o := Options{Jobs: 400, Seeds: 2}
	full, err := Cell{Policy: "memaware"}.Run(o)
	if err != nil {
		t.Fatal(err)
	}

	// Abort every seed at the first sample past one simulated day; the
	// workload spans much longer, so the truncation must bite.
	const cutoff = 24 * 3600
	cut, err := Cell{
		Policy:      "memaware",
		StopWhen:    func(s dismem.Sample) bool { return s.Now >= cutoff },
		SampleEvery: 3600,
	}.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if cut.StoppedRuns != o.Seeds {
		t.Fatalf("%d of %d seeds stopped", cut.StoppedRuns, o.Seeds)
	}
	if cut.Jobs >= full.Jobs {
		t.Fatalf("aborted runs recorded %.0f jobs, full runs %.0f", cut.Jobs, full.Jobs)
	}
	for _, r := range cut.Reports {
		if r.MakespanSec > cutoff+3600 {
			t.Fatalf("aborted run simulated to %d s, cutoff %d", r.MakespanSec, cutoff)
		}
	}
}

func TestCellSpecPolicy(t *testing.T) {
	// Cells accept spec strings wherever a policy name goes: the fan-out
	// path the grammar exists for.
	o := Options{Jobs: 120, Seeds: 1}
	agg, err := Cell{Policy: "order=sjf backfill=easy placer=memaware cap=2"}.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Jobs == 0 {
		t.Fatal("no jobs ran under a spec-string policy")
	}
}

// aggJSON flattens an Agg (including the per-seed reports and records)
// to its JSON encoding, the byte-identity yardstick for resume and
// worker-count invariance.
func aggJSON(t *testing.T, a Agg) string {
	t.Helper()
	b, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// memawareFactory builds the registered memaware scheduler, as a
// factory for live-code cells in tests.
func memawareFactory() dismem.Scheduler {
	s, err := dismem.NewScheduler("memaware")
	if err != nil {
		panic(err)
	}
	return s
}

func TestWorkerPoolMatchesSerial(t *testing.T) {
	c := Cell{Policy: "memaware"}
	serial, err := c.Run(Options{Jobs: 200, Seeds: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := c.Run(Options{Jobs: 200, Seeds: 3, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if aggJSON(t, serial) != aggJSON(t, pooled) {
		t.Fatal("4-worker aggregate differs from serial aggregate")
	}
}

func TestWorkerPoolOverlapsUnits(t *testing.T) {
	// Every unit blocks at its first sample until all n are inside the
	// predicate simultaneously. A pool that actually runs units
	// concurrently releases the barrier; a serial pool would deadlock
	// on the first unit — guarded by the timeout below.
	const n = 3
	barrier := make(chan struct{})
	var arrived atomic.Int32
	c := Cell{Policy: "memaware", StopWhen: func(dismem.Sample) bool {
		if arrived.Add(1) == n {
			close(barrier)
		}
		<-barrier
		return true
	}}
	done := make(chan error, 1)
	go func() {
		_, err := c.Run(Options{Jobs: 200, Seeds: n, Workers: n})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("worker pool did not overlap units: barrier never released")
	}
}

func TestUnitPanicRetries(t *testing.T) {
	var calls atomic.Int32
	c := Cell{Scheduler: func() dismem.Scheduler {
		if calls.Add(1) == 1 {
			panic("transient unit failure")
		}
		return memawareFactory()
	}}
	if _, err := c.Run(Options{Jobs: 120, Seeds: 1, Workers: 1}); err != nil {
		t.Fatalf("one retry did not absorb a single transient panic: %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("unit ran %d times, want 2", got)
	}
}

func TestUnitPanicExhaustsRetries(t *testing.T) {
	c := Cell{Scheduler: func() dismem.Scheduler { panic("persistent unit failure") }}
	_, err := c.Run(Options{Jobs: 120, Seeds: 1, Workers: 1})
	if err == nil || !strings.Contains(err.Error(), "panic in simulation unit") {
		t.Fatalf("persistent panic not surfaced as unit error: %v", err)
	}
}

func TestCancelledContextInterrupts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := (Cell{Policy: "memaware"}).Run(Options{Jobs: 150, Seeds: 2, Ctx: ctx})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("cancelled sweep returned %v, want ErrInterrupted", err)
	}
}

func TestMidRunCancellationDiscardsUnit(t *testing.T) {
	// The predicate cancels the sweep's context at the first sample; the
	// observer then stops the run at the next tick. The truncated result
	// must be discarded as interrupted, never aggregated or journaled.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := Cell{
		Policy:   "memaware",
		StopWhen: func(dismem.Sample) bool { cancel(); return false },
	}
	_, err := c.Run(Options{Jobs: 400, Seeds: 1, Workers: 1, Ctx: ctx})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("mid-run cancellation returned %v, want ErrInterrupted", err)
	}
}

func TestRegistryRunReturnsInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run("table2", Options{Jobs: 150, Seeds: 1, Ctx: ctx})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("Run under cancelled ctx returned %v, want ErrInterrupted", err)
	}
	_, err = RunAll(Options{Jobs: 150, Seeds: 1, Ctx: ctx})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("RunAll under cancelled ctx returned %v, want ErrInterrupted", err)
	}
}

// TestNegativeScaleRejected: a negative Jobs, Seeds or Workers is an
// error that names the field, from sweep.Run and Cell.Run alike,
// never a silent run at the default scale.
func TestNegativeScaleRejected(t *testing.T) {
	fields := []struct {
		name string
		set  func(*Options)
	}{
		{"Jobs", func(o *Options) { o.Jobs = -5 }},
		{"Seeds", func(o *Options) { o.Seeds = -1 }},
		{"Workers", func(o *Options) { o.Workers = -3 }},
	}
	runs := []struct {
		name string
		run  func(Options) error
	}{
		{"sweep.Run", func(o Options) error { _, err := Run("table1", o); return err }},
		{"Cell.Run", func(o Options) error { _, err := Cell{Policy: "memaware"}.Run(o); return err }},
	}
	for _, f := range fields {
		for _, r := range runs {
			t.Run(f.name+"/"+r.name, func(t *testing.T) {
				o := Options{Jobs: 60, Seeds: 1, Workers: 1}
				f.set(&o)
				err := r.run(o)
				if err == nil {
					t.Fatalf("negative %s accepted", f.name)
				}
				if !strings.Contains(err.Error(), f.name) {
					t.Fatalf("error %q does not name %s", err, f.name)
				}
			})
		}
	}
}
