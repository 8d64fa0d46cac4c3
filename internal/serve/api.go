package serve

import (
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"dismem"
	"dismem/internal/report"
	"dismem/internal/telemetry"
	"dismem/internal/trace"
)

// WhatIfRequest is the body of POST /v1/whatif: a what-if query against
// the baseline timeline. The service picks the nearest ring checkpoint
// at or before At and forks it with the overrides below; identical
// requests against the same checkpoint produce byte-identical
// responses.
type WhatIfRequest struct {
	// At is the divergence instant in simulated seconds. The fork
	// starts from the newest checkpoint at or before it (reported as
	// checkpoint_at). 0 means "the newest checkpoint".
	At int64 `json:"at"`
	// Scenario is an optional what-if tail in the scenario grammar
	// ("at=50000 down rack=2; at=86400 up rack=2"); instants are
	// absolute simulated time and must not precede the checkpoint.
	Scenario string `json:"scenario,omitempty"`
	// Policy optionally switches the scheduling policy at the fork
	// point ("sjf-local", "order=sjf backfill=easy placer=memaware", ...).
	Policy string `json:"policy,omitempty"`
	// ReseedFailures re-randomises failure injection from the fork
	// point with FailureSeed (exploring futures instead of replaying
	// the recorded one).
	ReseedFailures bool   `json:"reseed_failures,omitempty"`
	FailureSeed    uint64 `json:"failure_seed,omitempty"`
	// Horizon, when > 0, truncates the fork at that simulated instant
	// (Result.Stopped reported as stopped); 0 runs to completion.
	Horizon int64 `json:"horizon,omitempty"`
	// NoBaseline skips the baseline comparison fork (and the deltas):
	// cheaper when only the absolute outcome matters.
	NoBaseline bool `json:"no_baseline,omitempty"`
}

// RunSummary is the flat JSON projection of one run's report — the
// fields of the canonical text report, machine-readable.
type RunSummary struct {
	Completed         int     `json:"completed"`
	Killed            int     `json:"killed"`
	Rejected          int     `json:"rejected"`
	MakespanSec       int64   `json:"makespan_sec"`
	Events            uint64  `json:"events"`
	MeanWaitSec       float64 `json:"mean_wait_sec"`
	P95WaitSec        float64 `json:"p95_wait_sec"`
	P99WaitSec        float64 `json:"p99_wait_sec"`
	MeanBSld          float64 `json:"mean_bsld"`
	P95BSld           float64 `json:"p95_bsld"`
	NodeUtil          float64 `json:"node_util"`
	LocalMemUtil      float64 `json:"local_mem_util"`
	PoolUtil          float64 `json:"pool_util"`
	MeanFabricDemand  float64 `json:"mean_fabric_demand_gibps"`
	ThroughputPerHour float64 `json:"throughput_per_hour"`
	NodeHours         float64 `json:"node_hours"`
	RemoteJobFraction float64 `json:"remote_job_fraction"`
	NodeFailures      int     `json:"node_failures"`
	FailureKills      int     `json:"failure_kills"`
	ScenarioEvents    int     `json:"scenario_events"`
	JainWait          float64 `json:"jain_wait"`
	Stopped           bool    `json:"stopped,omitempty"`
}

// summarize flattens a Result into a RunSummary.
func summarize(res *dismem.Result) RunSummary {
	r := res.Report
	return RunSummary{
		Completed:         r.Completed,
		Killed:            r.Killed,
		Rejected:          r.Rejected,
		MakespanSec:       r.MakespanSec,
		Events:            res.Events,
		MeanWaitSec:       r.Wait.Mean(),
		P95WaitSec:        r.P95Wait,
		P99WaitSec:        r.P99Wait,
		MeanBSld:          r.BSld.Mean(),
		P95BSld:           r.P95BSld,
		NodeUtil:          r.NodeUtil,
		LocalMemUtil:      r.LocalMemUtil,
		PoolUtil:          r.PoolUtil,
		MeanFabricDemand:  r.MeanFabricDemand,
		ThroughputPerHour: r.ThroughputPerHour,
		NodeHours:         r.NodeHours,
		RemoteJobFraction: r.RemoteJobFraction,
		NodeFailures:      r.NodeFailures,
		FailureKills:      r.FailureKills,
		ScenarioEvents:    res.ScenarioEvents,
		JainWait:          res.Recorder.JainWait(),
		Stopped:           res.Stopped,
	}
}

// Deltas is the what-if outcome minus the baseline outcome over the
// same window (same checkpoint, same horizon, no overrides): positive
// mean_wait_sec means the what-if future waits longer than the baseline
// future.
type Deltas struct {
	Completed         int     `json:"completed"`
	Killed            int     `json:"killed"`
	MeanWaitSec       float64 `json:"mean_wait_sec"`
	P95WaitSec        float64 `json:"p95_wait_sec"`
	P99WaitSec        float64 `json:"p99_wait_sec"`
	MeanBSld          float64 `json:"mean_bsld"`
	P95BSld           float64 `json:"p95_bsld"`
	NodeUtil          float64 `json:"node_util"`
	PoolUtil          float64 `json:"pool_util"`
	ThroughputPerHour float64 `json:"throughput_per_hour"`
	JainWait          float64 `json:"jain_wait"`
}

func deltas(whatif, base RunSummary) *Deltas {
	return &Deltas{
		Completed:         whatif.Completed - base.Completed,
		Killed:            whatif.Killed - base.Killed,
		MeanWaitSec:       whatif.MeanWaitSec - base.MeanWaitSec,
		P95WaitSec:        whatif.P95WaitSec - base.P95WaitSec,
		P99WaitSec:        whatif.P99WaitSec - base.P99WaitSec,
		MeanBSld:          whatif.MeanBSld - base.MeanBSld,
		P95BSld:           whatif.P95BSld - base.P95BSld,
		NodeUtil:          whatif.NodeUtil - base.NodeUtil,
		PoolUtil:          whatif.PoolUtil - base.PoolUtil,
		ThroughputPerHour: whatif.ThroughputPerHour - base.ThroughputPerHour,
		JainWait:          whatif.JainWait - base.JainWait,
	}
}

// WhatIfResponse is the body of a successful POST /v1/whatif.
type WhatIfResponse struct {
	CheckpointAt int64       `json:"checkpoint_at"`
	Horizon      int64       `json:"horizon,omitempty"`
	Report       RunSummary  `json:"report"`
	Baseline     *RunSummary `json:"baseline,omitempty"`
	Deltas       *Deltas     `json:"deltas,omitempty"`
}

// baselineCache memoises the no-override comparison fork per
// (checkpoint, horizon) window: every query against the same window
// shares one baseline replay. Entries use a per-key once so concurrent
// first queries compute it exactly once (and all see the same error if
// it fails). The client picks the horizon, so the windows are
// unbounded; the cache is cleared wholesale when a new window finds it
// holding baselineCacheCap, as sweep's workload cache is. A baseline is
// deterministic, so one computed again is the same bytes.
type baselineCache struct {
	mu sync.Mutex
	m  map[baseKey]*baseEntry
}

// baselineCacheCap bounds the baseline cache: far more windows than a
// ring of checkpoints and a client's few horizons use, and about 1 MB
// of entries at most.
const baselineCacheCap = 4096

type baseKey struct {
	at, horizon int64
}

type baseEntry struct {
	once sync.Once
	sum  RunSummary
	err  error
}

// baseline returns the cached baseline summary for the window, running
// the comparison fork on first use. hit reports whether the value was
// already computed.
func (c *baselineCache) baseline(key baseKey, run func() (RunSummary, error)) (sum RunSummary, hit bool, err error) {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[baseKey]*baseEntry)
	}
	e, ok := c.m[key]
	if !ok {
		if len(c.m) >= baselineCacheCap {
			clear(c.m)
		}
		e = &baseEntry{}
		c.m[key] = e
	}
	c.mu.Unlock()
	hit = ok
	e.once.Do(func() { e.sum, e.err = run() })
	return e.sum, hit, e.err
}

// httpError is an error carrying the HTTP status it should map to.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// whatif executes one validated query: pick the checkpoint, fork with
// the request's overrides on the bounded worker pool, run the future,
// and (unless suppressed) fork the no-override baseline over the same
// window for the deltas.
func (s *Server) whatif(req *WhatIfRequest) (*WhatIfResponse, *dismem.Result, error) {
	var (
		entry *ringEntry
		ok    bool
	)
	if req.At == 0 {
		entry, ok = s.ring.newest()
		if !ok {
			return nil, nil, &httpError{status: http.StatusServiceUnavailable,
				msg: "no checkpoint available yet; the baseline has not reached its first ring boundary"}
		}
	} else {
		entry, ok = s.ring.nearest(req.At)
		if !ok {
			oldest, has := s.ring.oldest()
			msg := fmt.Sprintf("no checkpoint at or before t=%d", req.At)
			if has {
				msg += fmt.Sprintf(" (oldest retained is t=%d; raise -ckpt-keep or query later instants)", oldest.at)
			} else {
				msg += " (the baseline has not reached its first ring boundary)"
			}
			return nil, nil, badRequest("%s", msg)
		}
	}
	cp, err := entry.load()
	if err != nil {
		// The error is sticky (sync.Once): every query that picks this
		// corrupt entry fails identically, and the counter makes the
		// condition visible on /metrics before anyone reads the logs.
		s.ckptLoadErrors.Add(1)
		return nil, nil, &httpError{status: http.StatusInternalServerError,
			msg: fmt.Sprintf("loading checkpoint %s: %v", entry.path, err)}
	}

	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	forkStart := time.Now()
	f, err := dismem.Fork(cp, dismem.ForkOptions{
		ScenarioSpec:   req.Scenario,
		Policy:         req.Policy,
		ReseedFailures: req.ReseedFailures,
		FailureSeed:    req.FailureSeed,
		Horizon:        req.Horizon,
	})
	if err != nil {
		// Every Fork failure is a defect in the request (bad scenario
		// grammar, horizon before the frozen clock, unknown policy...):
		// the checkpoint itself already loaded.
		return nil, nil, badRequest("%v", err)
	}
	s.recordFork(time.Since(forkStart))
	res, err := f.Run()
	if err != nil {
		return nil, nil, &httpError{status: http.StatusInternalServerError, msg: err.Error()}
	}

	resp := &WhatIfResponse{
		CheckpointAt: cp.At(),
		Horizon:      req.Horizon,
		Report:       summarize(res),
	}
	if !req.NoBaseline {
		base, hit, err := s.base.baseline(baseKey{at: cp.At(), horizon: req.Horizon}, func() (RunSummary, error) {
			bStart := time.Now()
			bf, err := dismem.Fork(cp, dismem.ForkOptions{Horizon: req.Horizon})
			if err != nil {
				return RunSummary{}, err
			}
			s.recordFork(time.Since(bStart))
			bres, err := bf.Run()
			if err != nil {
				return RunSummary{}, err
			}
			return summarize(bres), nil
		})
		if err != nil {
			return nil, nil, &httpError{status: http.StatusInternalServerError,
				msg: fmt.Sprintf("baseline fork: %v", err)}
		}
		if hit {
			s.baselineHits.Add(1)
		}
		resp.Baseline = &base
		resp.Deltas = deltas(resp.Report, base)
	}
	return resp, res, nil
}

// recordFork folds one fork latency into the expvar counters.
func (s *Server) recordFork(d time.Duration) {
	ns := d.Nanoseconds()
	s.forksTotal.Add(1)
	s.forkNsTotal.Add(ns)
	// expvar.Int has no CAS; concurrent maxima race last-writer-wins,
	// which is fine for an advisory gauge.
	if ns > s.forkNsMax.Value() {
		s.forkNsMax.Set(ns)
	}
}

// Handler returns the service's HTTP API:
//
//	GET  /v1/status      — live baseline snapshot + ring occupancy
//	GET  /v1/checkpoints — the ring, ascending by instant
//	GET  /v1/trace       — baseline lifecycle-trace ring (?from=&to=
//	                       bound the virtual-time window; requires
//	                       Config.TraceRing > 0)
//	POST /v1/whatif      — fork a what-if future (?format=text for the
//	                       canonical plain-text report)
//	GET  /metrics        — live baseline gauges + service counters in
//	                       the Prometheus text exposition format
//	GET  /debug/vars     — expvar counters (per-server, under the
//	                       server's unique name; see VarsName)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/status", s.handleStatus)
	mux.HandleFunc("/v1/checkpoints", s.handleCheckpoints)
	mux.HandleFunc("/v1/trace", s.handleTrace)
	mux.HandleFunc("/v1/whatif", s.handleWhatIf)
	mux.Handle("/metrics", telemetry.Handler(s.gauges, telemetry.ExpvarSource(s.varsName, &s.vars)))
	mux.HandleFunc("/debug/vars", s.handleVars)
	return mux
}

// statusResponse is the body of GET /v1/status.
type statusResponse struct {
	Status
	Checkpoints ringStatus `json:"checkpoints"`
}

type ringStatus struct {
	Count    int    `json:"count"`
	OldestAt int64  `json:"oldest_at"`
	NewestAt int64  `json:"newest_at"`
	Every    int64  `json:"every"`
	Keep     int    `json:"keep"`
	Dir      string `json:"dir"`
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	resp := statusResponse{
		Status: s.Status(),
		Checkpoints: ringStatus{
			Count: s.ring.len(),
			Every: s.cfg.CkptEvery,
			Keep:  s.cfg.CkptKeep,
			Dir:   s.cfg.CkptDir,
		},
	}
	if e, ok := s.ring.oldest(); ok {
		resp.Checkpoints.OldestAt = e.at
	}
	if e, ok := s.ring.newest(); ok {
		resp.Checkpoints.NewestAt = e.at
	}
	writeJSON(w, resp)
}

// checkpointInfo is one ring entry in GET /v1/checkpoints.
type checkpointInfo struct {
	At   int64  `json:"at"`
	File string `json:"file"`
}

func (s *Server) handleCheckpoints(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	entries := s.ring.snapshot()
	infos := make([]checkpointInfo, 0, len(entries))
	for _, e := range entries {
		infos = append(infos, checkpointInfo{At: e.at, File: e.path})
	}
	writeJSON(w, struct {
		Checkpoints []checkpointInfo `json:"checkpoints"`
	}{infos})
}

// traceResponse is the body of GET /v1/trace. Events use the JSONL
// wire schema (one object per Event), oldest first; Dropped counts
// events already overwritten by the bounded ring.
type traceResponse struct {
	From    int64         `json:"from"`
	To      int64         `json:"to,omitempty"`
	Count   int           `json:"count"`
	Dropped uint64        `json:"dropped"`
	Events  []trace.Event `json:"events"`
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	if s.trace == nil {
		http.Error(w, "tracing disabled (start the server with a trace ring, e.g. dmserve -trace-ring 65536)", http.StatusNotFound)
		return
	}
	from, err := traceBound(r, "from")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	to, err := traceBound(r, "to")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	evs := s.trace.Query(from, to)
	if evs == nil {
		evs = []trace.Event{} // an empty window is [], not null
	}
	writeJSON(w, traceResponse{
		From:    from,
		To:      to,
		Count:   len(evs),
		Dropped: s.trace.Dropped(),
		Events:  evs,
	})
}

// traceBound parses one virtual-time window bound ("from"/"to") off a
// /v1/trace query; absent means 0 (unbounded).
func traceBound(r *http.Request, key string) (int64, error) {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return 0, nil
	}
	v, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s=%q: want a virtual time in seconds", key, raw)
	}
	return v, nil
}

func (s *Server) handleWhatIf(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	s.queriesInflight.Add(1)
	defer s.queriesInflight.Add(-1)

	var (
		resp *WhatIfResponse
		res  *dismem.Result
	)
	req, err := decodeWhatIf(w, r)
	if err == nil {
		resp, res, err = s.whatif(req)
	}
	if err != nil {
		s.queriesErrored.Add(1)
		status := http.StatusInternalServerError
		var he *httpError
		if ok := asHTTPError(err, &he); ok {
			status = he.status
		}
		http.Error(w, err.Error(), status)
		return
	}
	s.queriesServed.Add(1)
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, report.Format(s.labelFor(req.Policy), res))
		return
	}
	writeJSON(w, resp)
}

// maxWhatIfBody caps a what-if request body. A query is a few hundred
// bytes; the cap bounds what one request can make the server read.
const maxWhatIfBody = 1 << 20

// decodeWhatIf reads the body as exactly one WhatIfRequest object: an
// unknown field or anything but whitespace after the object is a 400,
// and a body over maxWhatIfBody a 413.
func decodeWhatIf(w http.ResponseWriter, r *http.Request) (*WhatIfRequest, error) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxWhatIfBody))
	dec.DisallowUnknownFields()
	var req WhatIfRequest
	err := dec.Decode(&req)
	trailing := err == nil
	if trailing {
		if _, err = dec.Token(); err == io.EOF {
			return &req, nil
		}
	}
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return nil, &httpError{status: http.StatusRequestEntityTooLarge,
			msg: fmt.Sprintf("what-if body exceeds the %d-byte limit", tooLarge.Limit)}
	case trailing:
		return nil, badRequest("bad what-if body: trailing data after the JSON object")
	}
	return nil, badRequest("bad what-if body: %v", err)
}

// labelFor picks the policy label a text-format response is rendered
// under: the query's override when present, else the baseline's.
func (s *Server) labelFor(override string) string {
	if override != "" {
		return override
	}
	return s.label
}

// asHTTPError unwraps err into an *httpError without pulling in
// errors.As generics noise at every call site.
func asHTTPError(err error, target **httpError) bool {
	he, ok := err.(*httpError)
	if ok {
		*target = he
	}
	return ok
}

// handleVars serves the per-server counters plus the process-global
// expvar set (memstats, cmdline) in the standard /debug/vars shape.
// The server's map leads under its process-unique name and is skipped
// in the global sweep (it is published there too), so the body is
// valid JSON with no duplicate keys even when several servers share
// the process — each shows up once, under its own name.
func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	var names []string
	expvar.Do(func(kv expvar.KeyValue) {
		if kv.Key != s.varsName {
			names = append(names, kv.Key)
		}
	})
	sort.Strings(names)
	fmt.Fprintf(w, "{\n%q: %s", s.varsName, s.vars.String())
	for _, name := range names {
		fmt.Fprintf(w, ",\n%q: %s", name, expvar.Get(name).String())
	}
	fmt.Fprint(w, "\n}\n")
}

// writeJSON writes v as an indented JSON body. Encoding a response
// struct cannot fail, and struct marshaling is field-order
// deterministic — part of the byte-identical response contract.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	b = append(b, '\n')
	w.Write(b)
}
