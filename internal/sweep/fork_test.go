package sweep

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"dismem"
	"dismem/internal/metrics"
	"dismem/internal/trace"
)

// TestForkFromSharedPrefix pins the shared-prefix sweep contract: a
// variant cell forked from a common checkpoint with no future
// overrides reproduces the plain run exactly, and an outage-tail
// variant diverges from it deterministically.
func TestForkFromSharedPrefix(t *testing.T) {
	base := Cell{Policy: "memaware", Model: "bandwidth:1,1"}
	o := Options{Jobs: 400, Seeds: 2}

	plain, err := base.Run(o)
	if err != nil {
		t.Fatal(err)
	}

	fp, err := base.CheckpointAt(o, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if fp.At() != 20000 || fp.Seeds() != 2 {
		t.Fatalf("fork point at=%d seeds=%d, want 20000/2", fp.At(), fp.Seeds())
	}

	same, err := base.ForkFrom(fp)
	if err != nil {
		t.Fatal(err)
	}
	if len(same.Reports) != len(plain.Reports) {
		t.Fatalf("report counts differ: %d vs %d", len(same.Reports), len(plain.Reports))
	}
	for s := range plain.Reports {
		if *same.Reports[s] != *plain.Reports[s] {
			t.Fatalf("seed %d: forked report differs from plain run:\n%+v\n%+v",
				s+1, same.Reports[s], plain.Reports[s])
		}
	}

	outage, err := dismem.ParseScenario("at=30000 down rack=3; at=60000 up rack=3")
	if err != nil {
		t.Fatal(err)
	}
	variant := base
	variant.Scenario = outage
	hitA, err := variant.ForkFrom(fp)
	if err != nil {
		t.Fatal(err)
	}
	hitB, err := variant.ForkFrom(fp)
	if err != nil {
		t.Fatal(err)
	}
	for s := range hitA.Reports {
		if *hitA.Reports[s] != *hitB.Reports[s] {
			t.Fatalf("seed %d: outage variant not deterministic", s+1)
		}
	}
	if hitA.MeanWait == plain.MeanWait {
		t.Fatal("outage tail left mean wait unchanged; variant fork had no effect")
	}

	// Policy variant from the same (still reusable) fork point.
	sjf := base
	sjf.Policy = "order=sjf placer=memaware"
	polA, err := sjf.ForkFrom(fp)
	if err != nil {
		t.Fatal(err)
	}
	polB, err := sjf.ForkFrom(fp)
	if err != nil {
		t.Fatal(err)
	}
	for s := range polA.Reports {
		if *polA.Reports[s] != *polB.Reports[s] {
			t.Fatalf("seed %d: policy variant not deterministic", s+1)
		}
	}
}

// TestForkFromFactorySchedulerIndependence forks a factory-scheduler
// base cell from one fork point on concurrent goroutines: each fork
// must get a fresh scheduler instance (the race detector in CI catches
// sharing), and both variants must reproduce the plain run.
func TestForkFromFactorySchedulerIndependence(t *testing.T) {
	base := Cell{Scheduler: func() dismem.Scheduler {
		s, err := dismem.ParsePolicy("placer=memaware")
		if err != nil {
			panic(err) // factory runs on fork goroutines; cannot t.Fatal
		}
		return s
	}, Model: "bandwidth:1,1"}
	o := Options{Jobs: 300, Seeds: 1}

	plain, err := base.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := base.CheckpointAt(o, 15000)
	if err != nil {
		t.Fatal(err)
	}
	type out struct {
		agg Agg
		err error
	}
	outs := make([]out, 2)
	done := make(chan struct{})
	for i := range outs {
		go func(i int) {
			defer func() { done <- struct{}{} }()
			agg, err := base.ForkFrom(fp)
			outs[i] = out{agg, err}
		}(i)
	}
	<-done
	<-done
	for i, ot := range outs {
		if ot.err != nil {
			t.Fatalf("concurrent fork %d: %v", i, ot.err)
		}
		if *ot.agg.Reports[0] != *plain.Reports[0] {
			t.Fatalf("concurrent fork %d diverged from plain run", i)
		}
	}
	close(done)
}

// TestCheckpointAtInterrupted: a cancelled sweep context ends a
// shared-prefix checkpoint with ErrInterrupted, before any prefix runs
// and during one alike.
func TestCheckpointAtInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Cell{Policy: "memaware"}.CheckpointAt(Options{Jobs: 200, Seeds: 1, Ctx: ctx}, 10000)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("cancelled CheckpointAt returned %v, want ErrInterrupted", err)
	}

	// Cancelled at the prefix's first sample: the abort observer stops
	// the run mid-prefix.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	c := Cell{Policy: "memaware", Series: func(int) metrics.SeriesSink {
		return cancelOnAdd{SeriesSink: dismem.DiscardSeries, cancel: cancel}
	}}
	_, err = c.CheckpointAt(Options{Jobs: 200, Seeds: 1, Ctx: ctx}, 50000)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("CheckpointAt cancelled mid-prefix returned %v, want ErrInterrupted", err)
	}
}

// cancelOnAdd cancels the sweep at the first series sample it receives.
type cancelOnAdd struct {
	metrics.SeriesSink
	cancel context.CancelFunc
}

func (c cancelOnAdd) Add(p metrics.SeriesPoint) {
	c.cancel()
	c.SeriesSink.Add(p)
}

// sinkLedger counts the sinks a cell's factories open and close.
type sinkLedger struct {
	mu                     sync.Mutex
	open, maxOpen, created int
	closes                 map[int]int // sink number -> Close calls
}

func (l *sinkLedger) opened() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.open++
	l.maxOpen = max(l.maxOpen, l.open)
	l.created++
	return l.created
}

func (l *sinkLedger) closed(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.open--
	l.closes[n]++
}

// ledgerSeries and ledgerTrace report their Close to a ledger.
type ledgerSeries struct {
	metrics.SeriesSink
	l *sinkLedger
	n int
}

func (s ledgerSeries) Close() error { s.l.closed(s.n); return s.SeriesSink.Close() }

type ledgerTrace struct {
	trace.TraceSink
	l *sinkLedger
	n int
}

func (s ledgerTrace) Close() error { s.l.closed(s.n); return s.TraceSink.Close() }

// ledgerCell is the memaware cell whose Series and Trace factories
// report to one ledger each.
func ledgerCell() (Cell, *sinkLedger, *sinkLedger) {
	series := &sinkLedger{closes: map[int]int{}}
	traces := &sinkLedger{closes: map[int]int{}}
	return Cell{
		Policy: "memaware",
		Series: func(int) metrics.SeriesSink {
			return ledgerSeries{SeriesSink: dismem.DiscardSeries, l: series, n: series.opened()}
		},
		Trace: func(int) trace.TraceSink {
			return ledgerTrace{TraceSink: dismem.DiscardTrace, l: traces, n: traces.opened()}
		},
	}, series, traces
}

// checkClosedOnce fails unless every sink the ledger saw was closed
// exactly once and at most maxOpen were ever open together.
func checkClosedOnce(t *testing.T, kind string, l *sinkLedger, want, maxOpen int) {
	t.Helper()
	if l.created != want || l.open != 0 {
		t.Errorf("%s: %d sinks created, %d still open; want %d created, 0 open", kind, l.created, l.open, want)
	}
	for n := 1; n <= l.created; n++ {
		if l.closes[n] != 1 {
			t.Errorf("%s sink %d closed %d times, want once", kind, n, l.closes[n])
		}
	}
	if l.maxOpen > maxOpen {
		t.Errorf("%s: %d sinks open at once, want at most %d", kind, l.maxOpen, maxOpen)
	}
}

// TestCheckpointAtClosesSinks: each seed's prefix ends once it is
// checkpointed, so every Series and Trace sink the prefix opened is
// closed exactly once — and on one worker, one seed's sinks at a time.
// The fork point stays exact although the worker's Runner recycled each
// prefix's engine into the next.
func TestCheckpointAtClosesSinks(t *testing.T) {
	c, series, traces := ledgerCell()
	o := Options{Jobs: 200, Seeds: 3, Workers: 1}
	fp, err := c.CheckpointAt(o, 20000)
	if err != nil {
		t.Fatal(err)
	}
	checkClosedOnce(t, "series", series, 3, 1)
	checkClosedOnce(t, "trace", traces, 3, 1)

	base := Cell{Policy: "memaware"}
	plain, err := base.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	forked, err := base.ForkFrom(fp)
	if err != nil {
		t.Fatal(err)
	}
	for s := range plain.Reports {
		if *forked.Reports[s] != *plain.Reports[s] {
			t.Fatalf("seed %d: fork of a recycled prefix differs from the plain run", s+1)
		}
	}
}

// TestForkFromAttachesSeries: a variant cell's Series and Trace
// factories reach every forked future, which writes samples to its
// series sink and closes each sink exactly once.
func TestForkFromAttachesSeries(t *testing.T) {
	o := Options{Jobs: 200, Seeds: 2, Workers: 1}
	fp, err := Cell{Policy: "memaware"}.CheckpointAt(o, 20000)
	if err != nil {
		t.Fatal(err)
	}
	c, series, traces := ledgerCell()
	var rows [2]bytes.Buffer
	c.Series = func(seed int) metrics.SeriesSink {
		return ledgerSeries{SeriesSink: dismem.NewJSONLSeriesSink(&rows[seed]), l: series, n: series.opened()}
	}
	if _, err := c.ForkFrom(fp); err != nil {
		t.Fatal(err)
	}
	checkClosedOnce(t, "series", series, 2, 1)
	checkClosedOnce(t, "trace", traces, 2, 1)
	for seed := range rows {
		if rows[seed].Len() == 0 {
			t.Errorf("seed %d: forked future wrote no series", seed+1)
		}
	}
}
