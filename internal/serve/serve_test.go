package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dismem"
	"dismem/internal/report"
)

// testOptions is the serve test configuration: failure injection and
// invariant checking on, no baseline scenario — what-if tails come in
// through the API. (A fork tail REPLACES the pending intervention
// timeline, so tests must use self-repairing tails: a tail that downs
// a rack without a matching up starves the queue forever and the
// future never drains.)
func testOptions(t *testing.T) dismem.Options {
	t.Helper()
	return dismem.Options{
		Policy:          "memaware",
		Model:           "bandwidth:1,1",
		Workload:        dismem.SyntheticWorkload(400, 4),
		Failures:        &dismem.FailureConfig{MTBFPerNodeSec: 2_000_000, RepairSec: 7200, Seed: 5},
		CheckInvariants: true,
	}
}

func testServer(t *testing.T, keep int) *Server {
	t.Helper()
	s, err := New(Config{
		Options:   testOptions(t),
		CkptDir:   t.TempDir(),
		CkptEvery: 7200,
		CkptKeep:  keep,
		Workers:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// driveToDone advances the baseline synchronously to completion, the
// single-goroutine equivalent of Run.
func driveToDone(t *testing.T, s *Server) {
	t.Helper()
	for {
		more, err := s.advance()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			return
		}
	}
}

// do runs one request through the service handler.
func do(h http.Handler, method, target, body string) *httptest.ResponseRecorder {
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, target, nil)
	} else {
		r = httptest.NewRequest(method, target, strings.NewReader(body))
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	return rec
}

func TestServeConfigValidation(t *testing.T) {
	base := func() Config {
		return Config{Options: dismem.Options{Policy: "fcfs-local", Workload: dismem.SyntheticWorkload(10, 1)},
			CkptDir: t.TempDir(), CkptEvery: 100}
	}
	for _, tc := range []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"missing dir", func(c *Config) { c.CkptDir = "" }, "CkptDir is required"},
		{"zero period", func(c *Config) { c.CkptEvery = 0 }, "CkptEvery must be > 0"},
		{"live scheduler", func(c *Config) { c.Options.SchedulerImpl = mustScheduler(t, "fcfs-local") }, "no durable form"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mut(&cfg)
			if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New() error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func mustScheduler(t *testing.T, policy string) dismem.Scheduler {
	t.Helper()
	s, err := dismem.NewScheduler(policy)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestServeStatusAndCheckpoints drives a baseline to completion and
// checks the read-only endpoints: status reflects the drained run, the
// checkpoint listing is the ring in ascending order on the CkptEvery
// grid, and /debug/vars exposes the per-server counters.
func TestServeStatusAndCheckpoints(t *testing.T) {
	s := testServer(t, 0)
	driveToDone(t, s)
	h := s.Handler()

	rec := do(h, http.MethodGet, "/v1/status", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/status = %d: %s", rec.Code, rec.Body)
	}
	var st statusResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if !st.BaselineDone || st.Policy != "memaware" || st.Model != "bandwidth:1,1" {
		t.Fatalf("status = %+v", st.Status)
	}
	if st.Checkpoints.Count == 0 || st.Checkpoints.Every != 7200 {
		t.Fatalf("ring status = %+v", st.Checkpoints)
	}

	rec = do(h, http.MethodGet, "/v1/checkpoints", "")
	var list struct {
		Checkpoints []checkpointInfo `json:"checkpoints"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Checkpoints) != st.Checkpoints.Count {
		t.Fatalf("checkpoint listing has %d entries, status says %d", len(list.Checkpoints), st.Checkpoints.Count)
	}
	for i, ci := range list.Checkpoints {
		if ci.At%7200 != 0 {
			t.Fatalf("ring checkpoint %d at t=%d, off the CkptEvery grid", i, ci.At)
		}
		if i > 0 && ci.At <= list.Checkpoints[i-1].At {
			t.Fatalf("checkpoint listing not ascending: %+v", list.Checkpoints)
		}
	}

	rec = do(h, http.MethodGet, "/debug/vars", "")
	var vars struct {
		Dmserve map[string]int64 `json:"dmserve"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil {
		t.Fatalf("bad /debug/vars payload: %v\n%s", err, rec.Body)
	}
	if vars.Dmserve["checkpoints_written"] == 0 {
		t.Fatalf("debug vars = %+v, want checkpoints_written > 0", vars.Dmserve)
	}
}

// offlineFork is the offline path a what-if answer must match: run
// opts to at, checkpoint, fork with fo and run the fork to its end.
func offlineFork(t *testing.T, opts dismem.Options, at int64, fo dismem.ForkOptions) *dismem.Result {
	t.Helper()
	off, err := dismem.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	off.RunUntil(at)
	cp, err := off.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	f, err := dismem.Fork(cp, fo)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatalf("offline fork at t=%d: %v", at, err)
	}
	return res
}

// TestWhatIfMatchesOfflineFork is the serving-layer golden test: a
// /v1/whatif answer must be bit-identical to the offline path — run to
// the same instant, Checkpoint, Fork with the same overrides, Run —
// in both the JSON report and the canonical text format.
func TestWhatIfMatchesOfflineFork(t *testing.T) {
	s := testServer(t, 0)
	driveToDone(t, s)
	h := s.Handler()

	const body = `{"at": 21600, "scenario": "at=50000 down rack=2; at=86400 up rack=2"}`
	rec := do(h, http.MethodPost, "/v1/whatif", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/whatif = %d: %s", rec.Code, rec.Body)
	}
	var resp WhatIfResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.CheckpointAt != 21600 {
		t.Fatalf("checkpoint_at = %d, want 21600", resp.CheckpointAt)
	}

	// The offline path the CI smoke also exercises via dmsched.
	offRes := offlineFork(t, testOptions(t), 21600, dismem.ForkOptions{ScenarioSpec: "at=50000 down rack=2; at=86400 up rack=2"})
	if got, want := resp.Report, summarize(offRes); got != want {
		t.Fatalf("service report diverges from offline fork:\n%+v\n%+v", got, want)
	}

	// Identical request, byte-identical response.
	rec2 := do(h, http.MethodPost, "/v1/whatif", body)
	if !bytes.Equal(rec.Body.Bytes(), rec2.Body.Bytes()) {
		t.Fatal("identical what-if requests returned different bytes")
	}

	// Text format: byte-identical to the shared report renderer over
	// the offline result.
	recText := do(h, http.MethodPost, "/v1/whatif?format=text", body)
	if recText.Code != http.StatusOK {
		t.Fatalf("text what-if = %d: %s", recText.Code, recText.Body)
	}
	if got, want := recText.Body.String(), report.Format("memaware", offRes); got != want {
		t.Fatalf("text report diverges from offline render:\n--- got\n%s--- want\n%s", got, want)
	}

	// Deltas must be self-consistent with the two summaries.
	if resp.Baseline == nil || resp.Deltas == nil {
		t.Fatal("response missing baseline/deltas")
	}
	if d := resp.Report.MeanWaitSec - resp.Baseline.MeanWaitSec; d != resp.Deltas.MeanWaitSec {
		t.Fatalf("delta mean_wait_sec %v inconsistent with report-baseline %v", resp.Deltas.MeanWaitSec, d)
	}
}

// TestWhatIfPolicySwitchDrains: a what-if that switches a memaware
// baseline to a local-only placer forks a queue memaware admitted. Its
// answer must be 200, equal to the offline fork's report and, in text
// format, byte-equal to its rendering: the queued jobs easy-local can
// never start are rejected at the fork instead of never terminating.
func TestWhatIfPolicySwitchDrains(t *testing.T) {
	opts := dismem.Options{Policy: "memaware", Workload: dismem.SyntheticWorkload(2000, 3)}
	s, err := New(Config{Options: opts, CkptDir: t.TempDir(), CkptEvery: 7200, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	driveToDone(t, s)
	h := s.Handler()
	for _, at := range []int64{43200, 86400} {
		body := fmt.Sprintf(`{"at":%d,"policy":"easy-local"}`, at)
		rec := do(h, http.MethodPost, "/v1/whatif", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("POST /v1/whatif %s = %d: %s", body, rec.Code, rec.Body)
		}
		var resp WhatIfResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		offRes := offlineFork(t, opts, at, dismem.ForkOptions{Policy: "easy-local"})
		if got, want := resp.Report, summarize(offRes); got != want {
			t.Fatalf("t=%d: service report diverges from offline fork:\n%+v\n%+v", at, got, want)
		}
		recText := do(h, http.MethodPost, "/v1/whatif?format=text", body)
		if got, want := recText.Body.String(), report.Format("easy-local", offRes); recText.Code != http.StatusOK || got != want {
			t.Fatalf("t=%d: text what-if = %d, diverges from offline render:\n--- got\n%s--- want\n%s", at, recText.Code, got, want)
		}
	}
}

// TestWhatIfConcurrentByteIdentical hammers one query from 32
// goroutines (4 workers) and requires every response byte-identical to
// the serial one — the concurrency contract, surfaced at the API.
func TestWhatIfConcurrentByteIdentical(t *testing.T) {
	s := testServer(t, 0)
	driveToDone(t, s)
	h := s.Handler()

	const body = `{"at": 21600, "scenario": "at=50000 down rack=2; at=86400 up rack=2", "policy": "order=sjf backfill=easy placer=memaware"}`
	serial := do(h, http.MethodPost, "/v1/whatif", body)
	if serial.Code != http.StatusOK {
		t.Fatalf("serial what-if = %d: %s", serial.Code, serial.Body)
	}

	const n = 32
	bodies := make([][]byte, n)
	codes := make([]int, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rec := do(h, http.MethodPost, "/v1/whatif", body)
			codes[g], bodies[g] = rec.Code, rec.Body.Bytes()
		}(g)
	}
	wg.Wait()
	for g := 0; g < n; g++ {
		if codes[g] != http.StatusOK {
			t.Fatalf("goroutine %d: status %d: %s", g, codes[g], bodies[g])
		}
		if !bytes.Equal(bodies[g], serial.Body.Bytes()) {
			t.Fatalf("goroutine %d returned different bytes than the serial query", g)
		}
	}
	if got := s.queriesServed.Value(); got != n+1 {
		t.Fatalf("queries_served = %d, want %d", got, n+1)
	}
}

// TestWhatIfValidation pins the HTTP error mapping: defects in the
// request are 400s with pointed messages, a body must be exactly one
// JSON object, one over the size cap is 413, an empty ring is 503, and
// non-POST is 405.
func TestWhatIfValidation(t *testing.T) {
	s := testServer(t, 0)
	// Advance past the first ring boundary only.
	for s.ring.len() == 0 {
		if _, err := s.advance(); err != nil {
			t.Fatal(err)
		}
	}
	h := s.Handler()

	for _, tc := range []struct {
		name, body string
		status     int
		want       string
	}{
		{"before first checkpoint", `{"at": 100}`, http.StatusBadRequest, "no checkpoint at or before t=100"},
		{"malformed scenario", `{"scenario": "at=50000 explode rack=2"}`, http.StatusBadRequest, "fork scenario"},
		{"horizon before checkpoint", `{"at": 7200, "horizon": 100}`, http.StatusBadRequest, "precedes the checkpoint's frozen clock"},
		{"unknown policy", `{"policy": "no-such-policy"}`, http.StatusBadRequest, "fork policy"},
		{"unknown field", `{"att": 5}`, http.StatusBadRequest, "bad what-if body"},
		{"not json", `at=5`, http.StatusBadRequest, "bad what-if body"},
		{"second object", `{"at": 0} {"at": 5}`, http.StatusBadRequest, "trailing data after the JSON object"},
		{"trailing garbage", `{"at": 0}garbage`, http.StatusBadRequest, "trailing data after the JSON object"},
		{"oversized body", `{"at":0}` + strings.Repeat(" ", 8<<20), http.StatusRequestEntityTooLarge, "exceeds the 1048576-byte limit"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := do(h, http.MethodPost, "/v1/whatif", tc.body)
			if rec.Code != tc.status || !strings.Contains(rec.Body.String(), tc.want) {
				t.Fatalf("status %d body %q, want %d with %q", rec.Code, rec.Body, tc.status, tc.want)
			}
		})
	}
	if rec := do(h, http.MethodGet, "/v1/whatif", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/whatif = %d, want 405", rec.Code)
	}

	empty := testServer(t, 0)
	if rec := do(empty.Handler(), http.MethodPost, "/v1/whatif", `{"at": 0}`); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("what-if on an empty ring = %d, want 503", rec.Code)
	}
	if errored := s.queriesErrored.Value(); errored == 0 {
		t.Fatal("queries_errored did not count the failures")
	}
}

// TestServeRestartBitIdentical is the durability golden test: SIGTERM
// (final checkpoint) + restart from the ring must continue the baseline
// to a result bit-identical to one uninterrupted run — report, events
// and per-job records.
func TestServeRestartBitIdentical(t *testing.T) {
	dir := t.TempDir()
	a, err := New(Config{Options: testOptions(t), CkptDir: dir, CkptEvery: 7200})
	if err != nil {
		t.Fatal(err)
	}
	for a.sim.Now() < 20000 {
		if _, err := a.advance(); err != nil {
			t.Fatal(err)
		}
	}
	path, err := a.FinalCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if path == "" {
		t.Fatal("final checkpoint wrote nothing for a live baseline")
	}

	b, err := New(Config{Options: testOptions(t), CkptDir: dir, CkptEvery: 7200})
	if err != nil {
		t.Fatal(err)
	}
	if b.ResumedFrom() == "" {
		t.Fatal("restarted server did not resume from the ring")
	}
	if b.Status().Now != a.Status().Now {
		t.Fatalf("resumed clock t=%d, want the interrupted t=%d", b.Status().Now, a.Status().Now)
	}
	driveToDone(t, b)
	resumed, err := b.sim.Result()
	if err != nil {
		t.Fatal(err)
	}

	fresh, err := dismem.New(testOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	full, err := fresh.Run()
	if err != nil {
		t.Fatal(err)
	}
	if *resumed.Report != *full.Report {
		t.Fatalf("resumed run diverged:\n%+v\n%+v", resumed.Report, full.Report)
	}
	if resumed.Events != full.Events || resumed.ScenarioEvents != full.ScenarioEvents {
		t.Fatalf("resumed events %d/%d != %d/%d",
			resumed.Events, resumed.ScenarioEvents, full.Events, full.ScenarioEvents)
	}
	ra, rf := resumed.Recorder.Records(), full.Recorder.Records()
	if len(ra) != len(rf) {
		t.Fatalf("resumed %d records != %d", len(ra), len(rf))
	}
	for i := range ra {
		if ra[i] != rf[i] {
			t.Fatalf("record %d differs:\n%+v\n%+v", i, ra[i], rf[i])
		}
	}

	// The restart continued the checkpoint grid: every ring file after
	// the resume point still lands on a CkptEvery multiple.
	for _, e := range b.ring.snapshot() {
		if e.at%7200 != 0 && e.path != path {
			t.Fatalf("post-restart ring checkpoint off-grid at t=%d", e.at)
		}
	}
}

// TestServeRunLiveQueries exercises the real concurrency shape under
// -race: the drive loop advancing on one goroutine while handler
// goroutines read status and fork what-ifs, then a graceful stop with
// a final checkpoint.
func TestServeRunLiveQueries(t *testing.T) {
	s := testServer(t, 0)
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- s.Run(ctx) }()

	// Wait for the first ring checkpoint so queries have a base.
	for s.ring.len() == 0 {
		time.Sleep(time.Millisecond)
	}
	h := s.Handler()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if rec := do(h, http.MethodGet, "/v1/status", ""); rec.Code != http.StatusOK {
					t.Errorf("status during run: %d", rec.Code)
				}
				rec := do(h, http.MethodPost, "/v1/whatif", `{"at": 0, "horizon": 0, "no_baseline": true}`)
				if rec.Code != http.StatusOK {
					t.Errorf("what-if during run: %d: %s", rec.Code, rec.Body)
				}
			}
		}()
	}
	wg.Wait()
	cancel()
	if err := <-runDone; err != nil {
		t.Fatalf("Run() = %v", err)
	}
	if _, err := s.FinalCheckpoint(); err != nil {
		t.Fatal(err)
	}
}
