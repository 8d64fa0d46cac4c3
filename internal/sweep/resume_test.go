package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"dismem"
	"dismem/internal/metrics"
	"dismem/internal/runstore"
)

// openStore opens the run store at dir for the rest of the test.
func openStore(t *testing.T, dir string) *runstore.Store {
	t.Helper()
	s, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// servedUnits counts the units a resumed run of c at o serves from
// o.Store: under a cancelled context every unit that would have to be
// simulated is interrupted instead, so only served units report done.
func servedUnits(c Cell, o Options) int {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var n atomic.Int32
	o.Ctx, o.Resume, o.UnitDone = ctx, true, func() { n.Add(1) }
	c.Run(o) // interrupted unless every unit is served
	return int(n.Load())
}

// plantUnit archives run under the real identity of seed s of c at o
// on the default machine: a run that surfaces its content was served
// from the store, not simulated.
func plantUnit(t *testing.T, c Cell, o Options, s int, run runstore.Run) string {
	t.Helper()
	spec, err := c.unitSpecJSON(o.withDefaults(), dismem.DefaultMachine(), s)
	if err != nil {
		t.Fatal(err)
	}
	run.ID, run.Kind, run.Seed, run.Spec = runstore.KeyOf(unitKind, spec, s), unitKind, s, spec
	if err := o.Store.Append(run); err != nil {
		t.Fatal(err)
	}
	return run.ID
}

func TestResumeServesArchivedUnit(t *testing.T) {
	c := Cell{Policy: "memaware"}
	o := Options{Jobs: 150, Seeds: 1, Store: openStore(t, t.TempDir()), Resume: true}
	planted := runstore.Run{
		Report:   &metrics.Report{Completed: 123456},
		JainWait: 0.75,
		Records:  []metrics.JobRecord{{ID: 42, Nodes: 3, Submit: 5, Start: 60, End: 600}},
	}
	plantUnit(t, c, o, 0, planted)
	agg, err := c.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.Reports) != 1 || agg.Reports[0].Completed != 123456 {
		t.Fatal("resume did not serve the archived unit")
	}
	if agg.JainWait != 0.75 {
		t.Fatalf("seed-0 fairness %v not taken from the archive", agg.JainWait)
	}
	if len(agg.Records) != 1 || agg.Records[0] != planted.Records[0] {
		t.Fatalf("seed-0 records %+v not taken from the archive", agg.Records)
	}
}

// TestResumeIsOptIn: without Resume, an archived unit is never served;
// the unit runs and its real record supersedes the archived one.
func TestResumeIsOptIn(t *testing.T) {
	c := Cell{Policy: "memaware"}
	o := Options{Jobs: 150, Seeds: 1, Store: openStore(t, t.TempDir())}
	id := plantUnit(t, c, o, 0, runstore.Run{Report: &metrics.Report{Completed: 123456}})
	agg, err := c.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Reports[0].Completed == 123456 {
		t.Fatal("a sweep without Resume served an archived unit")
	}
	got, err := o.Store.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if got.Report.Completed != agg.Reports[0].Completed {
		t.Fatal("the unit's real record did not supersede the archived one")
	}
}

// TestResumeRerunServesEveryUnit: re-running an archived cell with
// Resume serves every unit, reports each as done, matches the first
// run, and appends nothing.
func TestResumeRerunServesEveryUnit(t *testing.T) {
	dir := t.TempDir()
	c := Cell{Policy: "memaware"}
	o := Options{Jobs: 150, Seeds: 2, Store: openStore(t, dir)}
	first, err := c.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if got := o.Store.Len(); got != o.Seeds {
		t.Fatalf("archived %d units, want %d", got, o.Seeds)
	}
	if got := servedUnits(c, o); got != o.Seeds {
		t.Fatalf("resume served %d units, want %d", got, o.Seeds)
	}
	o.Resume = true
	again, err := c.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if aggJSON(t, first) != aggJSON(t, again) {
		t.Fatal("served aggregate differs from the simulated one")
	}
	seg, err := os.ReadFile(filepath.Join(dir, "seg-000001.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(seg), "\n"); got != o.Seeds {
		t.Fatalf("resume grew the archive to %d lines, want %d", got, o.Seeds)
	}
}

// TestResumeAfterTornStoreTail: a crash that tore the newest segment's
// trailing line loses only that unit; the resume re-runs it, the
// aggregate is byte-identical to a clean run, and the archive — the
// torn segment plus the resume's new one — reopens with every unit in
// seed order.
func TestResumeAfterTornStoreTail(t *testing.T) {
	c := Cell{Policy: "memaware"}
	clean, err := c.Run(Options{Jobs: 150, Seeds: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	store, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(Options{Jobs: 150, Seeds: 3, Store: store}); err != nil {
		t.Fatal(err)
	}
	store.Close()
	seg := filepath.Join(dir, "seg-000001.jsonl")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < 3 {
		t.Fatalf("segment has %d lines, want 3 units", len(lines))
	}
	torn := lines[0] + lines[1] + lines[2][:len(lines[2])/2]
	if err := os.WriteFile(seg, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	o := Options{Jobs: 150, Seeds: 3, Workers: 4, Store: openStore(t, dir), Resume: true}
	if got := o.Store.Len(); got != 2 {
		t.Fatalf("salvaged %d units from the torn archive, want 2", got)
	}
	resumed, err := c.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if aggJSON(t, clean) != aggJSON(t, resumed) {
		t.Fatal("resumed aggregate differs from clean serial run")
	}
	o.Store.Close()
	runs := openStore(t, dir).Runs()
	if len(runs) != 3 {
		t.Fatalf("reopened archive holds %d units, want 3", len(runs))
	}
	for s, r := range runs {
		if r.Seed != s {
			t.Fatalf("record %d holds seed %d: archive out of seed order", s, r.Seed)
		}
	}
}

// TestResumeContentAddressed: a unit is served exactly when its
// content-derived key is archived, so a resume at another scale serves
// only the units both scales share — no scale check is needed.
func TestResumeContentAddressed(t *testing.T) {
	c := Cell{Policy: "memaware"}
	store := openStore(t, t.TempDir())
	if _, err := c.Run(Options{Jobs: 150, Seeds: 2, Store: store}); err != nil {
		t.Fatal(err)
	}
	wider := Options{Jobs: 150, Seeds: 3, Store: store}
	if got := servedUnits(c, wider); got != 2 {
		t.Fatalf("3-seed resume over a 2-seed archive served %d units, want 2", got)
	}
	clean, err := c.Run(Options{Jobs: 150, Seeds: 3})
	if err != nil {
		t.Fatal(err)
	}
	wider.Resume = true
	resumed, err := c.Run(wider)
	if err != nil {
		t.Fatal(err)
	}
	if aggJSON(t, clean) != aggJSON(t, resumed) {
		t.Fatal("widened resume differs from a clean 3-seed run")
	}
	if got := servedUnits(c, Options{Jobs: 200, Seeds: 3, Store: store}); got != 0 {
		t.Fatalf("resume at another job count served %d units, want 0", got)
	}
}

// TestResumeRejectsCorruptArchive: a damaged archive fails the resume
// loudly — an archived unit without a report fails the cell, and
// interior corruption fails opening the store.
func TestResumeRejectsCorruptArchive(t *testing.T) {
	dir := t.TempDir()
	c := Cell{Policy: "memaware"}
	o := Options{Jobs: 150, Seeds: 1, Store: openStore(t, dir), Resume: true}
	plantUnit(t, c, o, 0, runstore.Run{Label: "no report"})
	if _, err := c.Run(o); err == nil || !strings.Contains(err.Error(), "no report") {
		t.Fatalf("resume served a unit without a report: %v", err)
	}

	o.Store.Close()
	seg := filepath.Join(dir, "seg-000001.jsonl")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the line but keep its trailing newline: this
	// is interior damage, not a torn tail.
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runstore.Open(dir); err == nil {
		t.Fatal("a corrupt archive opened for resume")
	}
}

func TestLiveCodeCellsAreNotJournaled(t *testing.T) {
	o := Options{Jobs: 150, Seeds: 1, Store: openStore(t, t.TempDir()), Resume: true}
	c := Cell{Scheduler: memawareFactory}
	if _, err := c.Run(o); err != nil {
		t.Fatal(err)
	}
	stop := Cell{Policy: "memaware", StopWhen: func(dismem.Sample) bool { return false }}
	if _, err := stop.Run(o); err != nil {
		t.Fatal(err)
	}
	if got := o.Store.Len(); got != 0 {
		t.Fatalf("archived %d units for live-code cells, want 0", got)
	}
}

// TestArchiveStopsAtFirstUnfinishedSeed: a cell interrupted after seed
// 1 finished but before seed 0 did archives nothing, so the resume
// appends seed 0 before seed 1, as a clean sweep does.
func TestArchiveStopsAtFirstUnfinishedSeed(t *testing.T) {
	c := Cell{Policy: "memaware"}
	o := Options{Jobs: 150, Seeds: 2, Store: openStore(t, t.TempDir())}.withDefaults()
	mc := dismem.DefaultMachine()
	specs := c.unitSpecs(o, mc)
	ok := seedOut{rep: &metrics.Report{Completed: 1}}
	interrupted := seedOut{err: ErrInterrupted}
	if err := c.archive(o, mc, []seedOut{interrupted, ok}, specs); err != nil {
		t.Fatal(err)
	}
	if got := o.Store.Len(); got != 0 {
		t.Fatalf("archived %d units past an unfinished seed 0, want 0", got)
	}
	if err := c.archive(o, mc, []seedOut{ok, interrupted}, specs); err != nil {
		t.Fatal(err)
	}
	if runs := o.Store.Runs(); len(runs) != 1 || runs[0].Seed != 0 {
		t.Fatalf("archived %+v, want seed 0 alone", runs)
	}
}

func TestExperimentResumeMatchesClean(t *testing.T) {
	// End-to-end over a real experiment: interrupt an archived sweep,
	// resume it from its store, and demand CSV-identical tables and a
	// byte-identical archive against a clean run.
	o := Options{Jobs: 120, Seeds: 2}
	cleanRun := o
	cleanRun.Store = openStore(t, t.TempDir())
	clean, err := Run("table2", cleanRun)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	interrupted := o
	interrupted.Ctx = ctx
	interrupted.Store = openStore(t, dir)
	var fired atomic.Bool
	go func() {
		// Cancel as soon as at least one unit is archived.
		for interrupted.Store.Len() == 0 {
			runtime.Gosched()
		}
		fired.Store(true)
		cancel()
	}()
	_, err = Run("table2", interrupted)
	if err != nil && !errors.Is(err, ErrInterrupted) {
		t.Fatal(err)
	}
	if !fired.Load() {
		// The sweep may have finished before the cancel landed; that is
		// still a valid resume input (all units archived).
		cancel()
	}
	interrupted.Store.Close()

	resumed := o
	resumed.Store = openStore(t, dir)
	resumed.Resume = true
	got, err := Run("table2", resumed)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(clean) {
		t.Fatalf("resumed run yielded %d tables, clean %d", len(got), len(clean))
	}
	for i := range got {
		if got[i].CSV() != clean[i].CSV() {
			t.Fatalf("table %d differs after resume:\n%s\nvs clean:\n%s", i, got[i].CSV(), clean[i].CSV())
		}
	}
	a, err := json.Marshal(cleanRun.Store.Runs())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(resumed.Store.Runs())
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("resumed archive differs from a clean sweep's")
	}
}
