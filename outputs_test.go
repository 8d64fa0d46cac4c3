package dismem_test

import (
	"testing"

	"dismem"
)

// closeCountRecordSink and closeCountSeriesSink count Close calls, like
// closeCountTraceSink does for traces.
type closeCountRecordSink struct{ closes int }

func (s *closeCountRecordSink) Add(dismem.JobRecord) {}
func (s *closeCountRecordSink) Close() error         { s.closes++; return nil }

type closeCountSeriesSink struct{ closes int }

func (s *closeCountSeriesSink) Add(dismem.SeriesPoint) {}
func (s *closeCountSeriesSink) Close() error           { s.closes++; return nil }

// TestRejectedRunClosesSinks pins that outputs belong to the run from
// the call that receives them: a New or Fork that rejects its options
// still closes (and so flushes) every sink, exactly once.
func TestRejectedRunClosesSinks(t *testing.T) {
	wl := dismem.SyntheticWorkload(200, 1)
	parent := mustNew(t, dismem.Options{Policy: "memaware", Workload: wl})
	parent.RunUntil(20000)
	cp, err := parent.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	type sinks struct {
		rec    *closeCountRecordSink
		series *closeCountSeriesSink
		trace  *closeCountTraceSink
	}
	newOpts := func(s sinks, o dismem.Options) error {
		o.RecordSink, o.SeriesSink, o.TraceSink, o.SampleEvery = s.rec, s.series, s.trace, 3600
		_, err := dismem.New(o)
		return err
	}
	fork := func(s sinks, o dismem.ForkOptions) error {
		o.RecordSink, o.SeriesSink, o.TraceSink, o.SampleEvery = s.rec, s.series, s.trace, 3600
		_, err := dismem.Fork(cp, o)
		return err
	}
	cases := []struct {
		name string
		run  func(sinks) error
	}{
		{"bad policy", func(s sinks) error {
			return newOpts(s, dismem.Options{Policy: "placer=teleport", Workload: wl})
		}},
		{"bad model", func(s sinks) error {
			return newOpts(s, dismem.Options{Model: "quadratic:2", Workload: wl})
		}},
		{"invalid machine", func(s sinks) error {
			return newOpts(s, dismem.Options{Machine: dismem.MachineConfig{Racks: -1}, Workload: wl})
		}},
		{"workload and source both set", func(s sinks) error {
			return newOpts(s, dismem.Options{Workload: wl, Source: dismem.WorkloadSource(wl)})
		}},
		{"fork with a bad policy", func(s sinks) error {
			return fork(s, dismem.ForkOptions{Policy: "placer=teleport"})
		}},
		{"fork reseed without failures", func(s sinks) error {
			return fork(s, dismem.ForkOptions{ReseedFailures: true, FailureSeed: 3})
		}},
		{"fork horizon before the checkpoint", func(s sinks) error {
			return fork(s, dismem.ForkOptions{Horizon: cp.At() - 1})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := sinks{&closeCountRecordSink{}, &closeCountSeriesSink{}, &closeCountTraceSink{}}
			if err := tc.run(s); err == nil {
				t.Fatal("options accepted, want a rejection")
			}
			if s.rec.closes != 1 || s.series.closes != 1 || s.trace.closes != 1 {
				t.Fatalf("sinks closed record=%d series=%d trace=%d times, want 1 each",
					s.rec.closes, s.series.closes, s.trace.closes)
			}
		})
	}
}

// tickCounter counts periodic samples.
type tickCounter struct {
	dismem.NopObserver
	ticks int
}

func (c *tickCounter) OnSample(dismem.Sample) { c.ticks++ }

// TestHorizonStuckForkStops pins a horizon fork whose future gets
// stuck: rack 2 goes down for good, so queued jobs can never start. Run
// must still cut the future at its horizon and report it Stopped, with
// the sampling tick chain running up to the horizon, sampled or not.
func TestHorizonStuckForkStops(t *testing.T) {
	parent := mustNew(t, dismem.Options{Policy: "memaware", Workload: dismem.SyntheticWorkload(2000, 3)})
	parent.RunUntil(20000)
	cp, err := parent.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		every  int64
		events uint64
		ticks  int
	}{
		{name: "sampled", every: 3600, events: 8407, ticks: 550},
		{name: "unsampled", every: 0, events: 7857, ticks: 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			obs := &tickCounter{}
			res := mustRun(t, mustFork(t, cp, dismem.ForkOptions{
				ScenarioSpec: "at=21000 down rack=2",
				Horizon:      2_000_000,
				Observer:     obs,
				SampleEvery:  tc.every,
			}))
			if !res.Stopped {
				t.Fatal("stuck horizon fork not reported Stopped")
			}
			if res.Report.Jobs() != 1972 || res.Events != tc.events || obs.ticks != tc.ticks {
				t.Fatalf("stuck horizon fork: %d jobs, %d events, %d ticks; want 1972, %d, %d",
					res.Report.Jobs(), res.Events, obs.ticks, tc.events, tc.ticks)
			}
		})
	}
}
