package sim

import (
	"errors"
	"strings"
	"testing"

	"dismem/internal/metrics"
	"dismem/internal/source"
	"dismem/internal/trace"
	"dismem/internal/workload"
)

// trackingSink counts records and closes, standing in for a buffered
// file sink whose data is lost unless Close (= flush) runs; a non-nil
// err makes Close fail.
type trackingSink struct {
	added  int
	closes int
	err    error
}

func (s *trackingSink) Add(metrics.JobRecord) { s.added++ }
func (s *trackingSink) Close() error          { s.closes++; return s.err }

// seriesCounter and traceCounter count closes like trackingSink.
type seriesCounter struct {
	closes int
	err    error
}

func (s *seriesCounter) Add(metrics.SeriesPoint) {}
func (s *seriesCounter) Close() error            { s.closes++; return s.err }

type traceCounter struct {
	closes int
	err    error
}

func (s *traceCounter) Add(trace.Event) {}
func (s *traceCounter) Close() error    { s.closes++; return s.err }

// allSinks attaches a fresh record, series and trace sink to cfg,
// sampling often enough that the series sink receives rows.
func allSinks(cfg *Config) (*trackingSink, *seriesCounter, *traceCounter) {
	rec, series, tr := &trackingSink{}, &seriesCounter{}, &traceCounter{}
	cfg.SampleEvery = 500
	cfg.Outputs = Outputs{RecordSink: rec, SeriesSink: series, TraceSink: tr}
	return rec, series, tr
}

// TestSinkClosedAfterStopFinish pins the satellite bugfix: a run
// truncated with Stop must still flush and close its record sink at
// Finish, exactly once, with every record produced before the stop
// delivered.
func TestSinkClosedAfterStopFinish(t *testing.T) {
	w := testWorkload(60, 2)
	sink := &trackingSink{}
	cfg := streamCfg()
	cfg.RecordSink = sink
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(w); err != nil {
		t.Fatal(err)
	}
	e.RunUntil(10000)
	e.Stop()
	res, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatal("result not marked stopped")
	}
	if sink.closes != 1 {
		t.Fatalf("sink closed %d times, want 1", sink.closes)
	}
	if got, want := sink.added, res.Report.Jobs()+res.Report.Rejected; got != want {
		t.Fatalf("sink saw %d records, report accounts for %d", got, want)
	}
	// Finish is idempotent; the sink must not be closed again.
	if _, err := e.Finish(); err != nil {
		t.Fatal(err)
	}
	if sink.closes != 1 {
		t.Fatalf("sink closed %d times after repeated Finish, want 1", sink.closes)
	}
}

// TestSinkClosedOnStartErrors pins that every failed-start path closes
// (and therefore flushes) all three sinks, since Finish will never run.
func TestSinkClosedOnStartErrors(t *testing.T) {
	bad := &workload.Workload{Jobs: []*workload.Job{{ID: -1, Submit: 0, Nodes: 1, Estimate: 1, BaseRuntime: 1}}}
	badSrc := source.FromJobs([]*workload.Job{{ID: 1, Submit: 0, Nodes: 0, Estimate: 1, BaseRuntime: 1}})
	for _, tc := range []struct {
		name  string
		start func(*Engine) error
	}{
		{"invalid workload", func(e *Engine) error { return e.Start(bad) }},
		{"nil source", func(e *Engine) error { return e.StartSource(nil) }},
		{"source whose first job is invalid", func(e *Engine) error { return e.StartSource(badSrc) }},
	} {
		cfg := streamCfg()
		rec, series, tr := allSinks(&cfg)
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := tc.start(e); err == nil {
			t.Fatalf("%s: start accepted", tc.name)
		}
		if rec.closes != 1 || series.closes != 1 || tr.closes != 1 {
			t.Fatalf("%s: sinks closed record=%d series=%d trace=%d times, want 1 each",
				tc.name, rec.closes, series.closes, tr.closes)
		}
	}
}

// TestFinishCloseErrorNamesSink pins the one close latch: a sink whose
// Close fails makes Finish return an error naming that sink, the other
// sinks still close exactly once, and a repeated Finish returns the
// same error without closing anything again.
func TestFinishCloseErrorNamesSink(t *testing.T) {
	boom := errors.New("disk full")
	for _, failing := range []string{"record", "series", "trace"} {
		cfg := streamCfg()
		rec, series, tr := allSinks(&cfg)
		switch failing {
		case "record":
			rec.err = boom
		case "series":
			series.err = boom
		case "trace":
			tr.err = boom
		}
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Start(testWorkload(30, 1)); err != nil {
			t.Fatal(err)
		}
		e.RunAll()
		_, err1 := e.Finish()
		if !errors.Is(err1, boom) || !strings.Contains(err1.Error(), "closing "+failing+" sink") {
			t.Fatalf("%s close failing: Finish error %v, want one naming the %s sink", failing, err1, failing)
		}
		_, err2 := e.Finish()
		if err2 == nil || err2.Error() != err1.Error() {
			t.Fatalf("%s close failing: repeated Finish error %v, want %v", failing, err2, err1)
		}
		if rec.closes != 1 || series.closes != 1 || tr.closes != 1 {
			t.Fatalf("%s close failing: sinks closed record=%d series=%d trace=%d times, want 1 each",
				failing, rec.closes, series.closes, tr.closes)
		}
	}
}

// TestSinkClosedOnMidStreamSourceError pins the mid-stream failure
// path: the source breaks after some jobs; Finish reports the source
// error and the sink is still closed exactly once with the drained
// prefix delivered.
func TestSinkClosedOnMidStreamSourceError(t *testing.T) {
	jobs := testWorkload(30, 4).Jobs
	// Corrupt a later job so the stream breaks mid-flight.
	bad := *jobs[20]
	bad.Nodes = 0
	jobs[20] = &bad
	sink := &trackingSink{}
	cfg := streamCfg()
	cfg.RecordSink = sink
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.StartSource(source.FromJobs(jobs)); err != nil {
		t.Fatal(err)
	}
	e.RunAll()
	if _, err := e.Finish(); err == nil {
		t.Fatal("Finish swallowed the source error")
	}
	if sink.closes != 1 {
		t.Fatalf("sink closed %d times, want 1", sink.closes)
	}
	if sink.added == 0 {
		t.Fatal("no drained records reached the sink")
	}
	// Finish keeps reporting the error without re-closing.
	if _, err := e.Finish(); err == nil {
		t.Fatal("repeated Finish swallowed the source error")
	}
	if sink.closes != 1 {
		t.Fatalf("sink closed %d times after repeated Finish, want 1", sink.closes)
	}
}
