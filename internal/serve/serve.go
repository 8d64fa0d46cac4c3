// Package serve is the long-lived what-if simulation service: a daemon
// layer that keeps one baseline Simulation warm, maintains a rolling
// ring of durable on-disk checkpoints (PR 6 envelopes, atomic writes,
// bounded retention), and answers concurrent what-if queries — "this
// outage at 14:00 under spec X: wait/bsld/fairness deltas?" — by
// forking the nearest checkpoint at or before the requested instant
// (PR 5 checkpoint/fork, ~µs per fork) instead of re-simulating the
// prefix.
//
// Architecture (DESIGN.md §10):
//
//   - The baseline is single-goroutine state, advanced only by the
//     drive loop (Run) in bounded virtual-time chunks — the same
//     no-cross-goroutine-Stop pattern as dmsched. Every K sim-seconds
//     it freezes a checkpoint and hands it to the ring, which also
//     persists it durably.
//   - HTTP handlers never touch the baseline. They read an atomically
//     published status snapshot and fork immutable checkpoints from
//     the ring; forks run on a bounded worker pool (Config.Workers),
//     each an independent Simulation.
//   - Query determinism: the same checkpoint and the same request body
//     produce a byte-identical response (forks are deterministic, the
//     baseline-delta summary is cached by value, and responses carry
//     no wall-clock state). The CI serve smoke diffs repeated queries
//     and the offline dmsched fork path against the service.
package serve

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"dismem"
	"dismem/internal/runstore"
	"dismem/internal/telemetry"
	"dismem/internal/trace"
)

// Config parameterises a Server.
type Config struct {
	// Options is the baseline run configuration. It must be durable:
	// policy and model selected by spec string (no SchedulerImpl /
	// ModelImpl), and any Source forkable and durable — the same rules
	// as SaveCheckpoint, checked up front instead of at the first ring
	// write.
	Options dismem.Options
	// Label names the policy in text-format what-if responses
	// (default Options.Policy).
	Label string
	// CkptDir is the checkpoint ring directory (required). A directory
	// holding ring files from a previous process resumes the baseline
	// from the newest one.
	CkptDir string
	// CkptEvery is the ring checkpoint period in simulated seconds
	// (required > 0). Checkpoints land exactly at multiples of it, so
	// offline runs can reproduce them with dmsched -checkpoint-at.
	CkptEvery int64
	// CkptKeep bounds ring retention: the oldest file is deleted once
	// more than CkptKeep exist (<= 0 keeps everything). The newest
	// checkpoint is never evicted.
	CkptKeep int
	// Workers bounds concurrent what-if forks (default GOMAXPROCS).
	Workers int
	// Chunk is the drive-loop granularity in simulated seconds: the
	// interrupt-check and status-publish interval (default 3600,
	// capped at CkptEvery).
	Chunk int64
	// Store, when non-nil, archives the baseline's final report as a
	// "serve-baseline" run record the moment the baseline drains. The
	// record carries no wall-clock state, so a baseline resumed from
	// the ring archives exactly what an uninterrupted one archives.
	Store *runstore.Store
	// TraceRing, when > 0, keeps the newest TraceRing baseline
	// lifecycle-trace events in a bounded in-memory ring served on
	// GET /v1/trace. The ring is a non-composing trace owner: beyond
	// the engine's lifecycle events it also records checkpoint/fork
	// boundary marks (ring writes, baseline resume). What-if forks are
	// not traced — the ring covers the baseline timeline only.
	// Requires Options.TraceSink to be nil (the server owns the
	// baseline's trace sink when the ring is enabled).
	TraceRing int
}

// Status is the live baseline snapshot the drive loop publishes after
// every chunk; handlers read it lock-free.
type Status struct {
	Policy       string  `json:"policy"`
	Model        string  `json:"model"`
	Now          int64   `json:"now"`
	QueueDepth   int     `json:"queue_depth"`
	Running      int     `json:"running"`
	DoneJobs     int     `json:"done_jobs"`
	Events       uint64  `json:"events"`
	BusyNodes    int     `json:"busy_nodes"`
	UsedPoolMiB  int64   `json:"used_pool_mib"`
	MaxPoolUtil  float64 `json:"max_pool_util"`
	BaselineDone bool    `json:"baseline_done"`
}

// Server wraps one baseline simulation, its checkpoint ring, and the
// query layer. Create with New, advance with Run, serve Handler.
type Server struct {
	cfg     Config
	label   string
	sim     *dismem.Simulation
	ring    *ring
	resumed string // ring file the baseline resumed from, "" for a fresh start

	nextCkpt int64
	status   atomic.Pointer[Status]

	sem chan struct{} // bounded what-if worker pool

	// trace is the bounded in-memory lifecycle-trace ring behind
	// GET /v1/trace (nil = tracing disabled).
	trace *trace.Ring

	base     baselineCache
	archived bool // baseline report already written to cfg.Store

	// expvar counters, grouped under one per-server map published
	// under a process-unique name ("dmserve", "dmserve_2", ...) so two
	// servers in one process never collide in the global registry or
	// emit duplicate keys in a /debug/vars body.
	varsName                                 string
	vars                                     expvar.Map
	queriesServed, queriesInflight           expvar.Int
	queriesErrored                           expvar.Int
	forksTotal, forkNsTotal, forkNsMax       expvar.Int
	ckptsWritten, ckptsEvicted, baselineHits expvar.Int
	ckptLoadErrors                           expvar.Int

	// gauges mirrors the published Status for GET /metrics scrapes.
	gauges *telemetry.GaugeSet
}

// varsNames tracks the per-server expvar map names taken in this
// process; expvar.Publish panics on a duplicate, so allocation must be
// collision-free for the process lifetime (the registry has no
// unpublish).
var varsNames struct {
	mu  sync.Mutex
	seq int
}

// nextVarsName allocates the next process-unique server name.
func nextVarsName() string {
	varsNames.mu.Lock()
	defer varsNames.mu.Unlock()
	varsNames.seq++
	if varsNames.seq == 1 {
		return "dmserve"
	}
	return fmt.Sprintf("dmserve_%d", varsNames.seq)
}

// New builds the server: a fresh baseline from cfg.Options, or — when
// cfg.CkptDir already holds ring checkpoints — the baseline resumed
// from the newest one, bit-identical to the process that wrote it
// (DESIGN.md §9). The checkpointed configuration then wins over
// cfg.Options (a checkpoint is self-contained).
func New(cfg Config) (*Server, error) {
	if cfg.CkptDir == "" {
		return nil, fmt.Errorf("serve: Config.CkptDir is required")
	}
	if cfg.CkptEvery <= 0 {
		return nil, fmt.Errorf("serve: Config.CkptEvery must be > 0 simulated seconds")
	}
	if cfg.Options.SchedulerImpl != nil {
		return nil, fmt.Errorf("serve: baseline must select its scheduler with Options.Policy (a live SchedulerImpl has no durable form)")
	}
	if cfg.Options.ModelImpl != nil {
		return nil, fmt.Errorf("serve: baseline must select its model with Options.Model (a live ModelImpl has no durable form)")
	}
	if cfg.TraceRing > 0 && cfg.Options.TraceSink != nil {
		return nil, fmt.Errorf("serve: Config.TraceRing and Options.TraceSink are mutually exclusive (the server owns the baseline's trace sink when the ring is enabled)")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Chunk <= 0 {
		cfg.Chunk = 3600
	}
	if cfg.Chunk > cfg.CkptEvery {
		cfg.Chunk = cfg.CkptEvery
	}

	r, err := openRing(cfg.CkptDir, cfg.CkptKeep)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		label:  cfg.Label,
		ring:   r,
		sem:    make(chan struct{}, cfg.Workers),
		gauges: telemetry.NewGaugeSet(),
	}
	if cfg.TraceRing > 0 {
		s.trace = trace.NewRing(cfg.TraceRing)
	}
	s.initVars()

	policy, model := cfg.Options.Policy, cfg.Options.Model
	if e, ok := r.newest(); ok {
		cp, err := e.load()
		if err != nil {
			s.ckptLoadErrors.Add(1)
			return nil, fmt.Errorf("serve: resuming baseline from %s: %w", e.path, err)
		}
		fo := dismem.ForkOptions{}
		if s.trace != nil {
			fo.TraceSink = s.trace
		}
		s.sim, err = dismem.Fork(cp, fo)
		if err != nil {
			return nil, fmt.Errorf("serve: resuming baseline from %s: %w", e.path, err)
		}
		s.resumed = e.path
		if s.trace != nil {
			// The ring is a non-composing trace: it marks the resume
			// boundary itself (the engine never emits boundary events).
			s.trace.Add(trace.Event{Now: cp.At(), Type: trace.ForkMark,
				Detail: "baseline resumed from " + filepath.Base(e.path)})
		}
		policy, model = cp.Policy(), cp.Model()
		// The next ring boundary is the first multiple of CkptEvery
		// strictly after the resume instant, so a resumed timeline
		// lands checkpoints on the same grid as an uninterrupted one.
		s.nextCkpt = (cp.At()/cfg.CkptEvery + 1) * cfg.CkptEvery
	} else {
		opts := cfg.Options
		if s.trace != nil {
			opts.TraceSink = s.trace
		}
		s.sim, err = dismem.New(opts)
		if err != nil {
			return nil, err
		}
		s.nextCkpt = cfg.CkptEvery
	}
	if s.label == "" {
		s.label = policy
	}
	if model == "" {
		model = "linear:0.5"
	}
	s.cfg.Options.Policy, s.cfg.Options.Model = policy, model
	s.publishStatus()
	return s, nil
}

// initVars wires the counters into the server's expvar map and
// publishes the map under a process-unique name, so one /debug/vars
// body (or /metrics scrape) can show every server in the process
// without key collisions.
func (s *Server) initVars() {
	s.vars.Init()
	s.vars.Set("queries_served", &s.queriesServed)
	s.vars.Set("queries_inflight", &s.queriesInflight)
	s.vars.Set("queries_errored", &s.queriesErrored)
	s.vars.Set("forks_total", &s.forksTotal)
	s.vars.Set("fork_ns_total", &s.forkNsTotal)
	s.vars.Set("fork_ns_max", &s.forkNsMax)
	s.vars.Set("checkpoints_written", &s.ckptsWritten)
	s.vars.Set("checkpoints_evicted", &s.ckptsEvicted)
	s.vars.Set("baseline_cache_hits", &s.baselineHits)
	s.vars.Set("checkpoint_load_errors", &s.ckptLoadErrors)
	s.varsName = nextVarsName()
	expvar.Publish(s.varsName, &s.vars)
}

// VarsName returns the process-unique expvar key this server's counter
// map is published under ("dmserve" for the first server).
func (s *Server) VarsName() string { return s.varsName }

// ResumedFrom returns the ring file the baseline was resumed from, or
// "" when the server started fresh.
func (s *Server) ResumedFrom() string { return s.resumed }

// Status returns the latest published baseline snapshot.
func (s *Server) Status() Status { return *s.status.Load() }

// publishStatus snapshots the baseline for lock-free handler reads and
// mirrors the snapshot into the /metrics gauges.
// Drive-loop-goroutine only.
func (s *Server) publishStatus() {
	sample := s.sim.Sample()
	s.status.Store(&Status{
		Policy:       s.cfg.Options.Policy,
		Model:        s.cfg.Options.Model,
		Now:          sample.Now,
		QueueDepth:   sample.QueueDepth,
		Running:      sample.Running,
		DoneJobs:     sample.Done,
		Events:       sample.Events,
		BusyNodes:    sample.Usage.BusyNodes,
		UsedPoolMiB:  sample.Usage.UsedPool,
		MaxPoolUtil:  sample.Usage.MaxPoolUtil,
		BaselineDone: s.sim.Done(),
	})
	g := s.gauges
	MirrorSample(g, sample)
	done := 0.0
	if s.sim.Done() {
		done = 1
	}
	g.Set("dismem_baseline_done", "1 once the baseline workload drained", nil, done)
}

// MirrorSample sets the dismem_* gauge families of one sample in g:
// the live state dmserve's /metrics serves for its baseline and
// dmsched -metrics-addr for its run, so dashboards work against
// either. Pool sets are stable for a machine's lifetime (pools never
// appear or vanish mid-run; a drained pool reads 0), so stale labels
// cannot linger.
func MirrorSample(g *telemetry.GaugeSet, sample dismem.Sample) {
	g.Set("dismem_now_seconds", "virtual clock of the run", nil, float64(sample.Now))
	g.Set("dismem_queue_depth", "jobs waiting in the queue", nil, float64(sample.QueueDepth))
	g.Set("dismem_running_jobs", "jobs running on the machine", nil, float64(sample.Running))
	g.Set("dismem_done_jobs", "jobs finished", nil, float64(sample.Done))
	g.Set("dismem_events_total", "DES events fired", nil, float64(sample.Events))
	g.Set("dismem_busy_nodes", "nodes running at least one job", nil, float64(sample.Usage.BusyNodes))
	g.Set("dismem_used_local_mib", "node-local memory in use", nil, float64(sample.Usage.UsedLocal))
	g.Set("dismem_used_pool_mib", "pooled memory in use", nil, float64(sample.Usage.UsedPool))
	g.Set("dismem_max_pool_util", "highest per-pool utilization", nil, sample.Usage.MaxPoolUtil)
	g.Set("dismem_max_congestion", "highest per-pool fabric congestion ratio", nil, sample.Usage.MaxCongest)
	for _, p := range sample.Pools {
		lbl := map[string]string{"pool": strconv.Itoa(p.ID)}
		g.Set("dismem_pool_used_bytes", "pooled memory in use, per pool", lbl, float64(p.UsedMiB)*1024*1024)
		g.Set("dismem_pool_capacity_bytes", "pool capacity, per pool", lbl, float64(p.CapacityMiB)*1024*1024)
	}
	for rk, free := range sample.RackFree {
		g.Set("dismem_rack_free_nodes", "available (up, idle) nodes per rack", map[string]string{"rack": strconv.Itoa(rk)}, float64(free))
	}
}

// archiveBaseline writes the drained baseline's final report to the
// configured run store, once. Drive-loop-goroutine only.
func (s *Server) archiveBaseline() error {
	if s.cfg.Store == nil || s.archived {
		return nil
	}
	res, err := s.sim.Result()
	if err != nil {
		return fmt.Errorf("serve: archiving baseline: %w", err)
	}
	spec, err := json.Marshal(struct {
		Policy string `json:"policy"`
		Model  string `json:"model"`
	}{s.cfg.Options.Policy, s.cfg.Options.Model})
	if err != nil {
		return fmt.Errorf("serve: archiving baseline: %w", err)
	}
	rec := runstore.Run{
		ID:     runstore.KeyOf("serve-baseline", spec, 0),
		Kind:   "serve-baseline",
		Label:  s.label,
		Spec:   spec,
		Report: res.Report,
		Events: res.Events,
	}
	if err := s.cfg.Store.Append(rec); err != nil {
		return fmt.Errorf("serve: archiving baseline: %w", err)
	}
	s.archived = true
	return nil
}

// advance drives the baseline one chunk (never past the next ring
// boundary), writing the boundary checkpoint when reached. It reports
// whether the baseline can still make progress. Drive-loop-goroutine
// only.
func (s *Server) advance() (bool, error) {
	if s.sim.Done() {
		s.publishStatus()
		return false, s.archiveBaseline()
	}
	target := s.sim.Now() + s.cfg.Chunk
	if target > s.nextCkpt {
		target = s.nextCkpt
	}
	s.sim.RunUntil(target)
	if !s.sim.Done() && s.sim.Now() >= s.nextCkpt {
		if err := s.writeRingCheckpoint(); err != nil {
			return false, err
		}
		s.nextCkpt += s.cfg.CkptEvery
	}
	s.publishStatus()
	if s.sim.Done() {
		return false, s.archiveBaseline()
	}
	return true, nil
}

// writeRingCheckpoint freezes the baseline and admits the checkpoint
// to the ring. Drive-loop-goroutine only.
func (s *Server) writeRingCheckpoint() error {
	cp, err := s.sim.Checkpoint()
	if err != nil {
		return fmt.Errorf("serve: baseline checkpoint at t=%d: %v", s.sim.Now(), err)
	}
	path, evicted, err := s.ring.add(cp)
	if err != nil {
		return err
	}
	s.ckptsWritten.Add(1)
	s.ckptsEvicted.Add(int64(len(evicted)))
	s.traceMark(trace.CheckpointMark, cp.At(), path)
	return nil
}

// traceMark records a checkpoint/fork boundary event in the trace
// ring, when one is enabled. The ring is the non-composing trace owner
// that records boundary marks the engine itself never emits.
func (s *Server) traceMark(t trace.Type, at int64, path string) {
	if s.trace == nil {
		return
	}
	s.trace.Add(trace.Event{Now: at, Type: t,
		Detail: "ring checkpoint " + filepath.Base(path)})
}

// Run is the drive loop: it advances the baseline chunk by chunk —
// checking ctx between chunks, at event boundaries, on this goroutine
// (no cross-goroutine Stop racing the event loop) — until the baseline
// drains, then idles serving queries from the ring until ctx is
// cancelled. Cancellation is a graceful stop, not an error; call
// FinalCheckpoint afterwards to persist the interrupted state.
func (s *Server) Run(ctx context.Context) error {
	for {
		if ctx.Err() != nil {
			return nil
		}
		more, err := s.advance()
		if err != nil {
			return err
		}
		if !more {
			break
		}
	}
	<-ctx.Done()
	return nil
}

// FinalCheckpoint freezes the baseline's current state into the ring,
// so a restart resumes exactly where this process stopped — the
// SIGTERM path. It reports the written path, or "" when the baseline
// already drained (nothing left to resume). Call it only after Run has
// returned: the caller is then the sole owner of the baseline again.
func (s *Server) FinalCheckpoint() (string, error) {
	if s.sim.Done() {
		return "", nil
	}
	cp, err := s.sim.Checkpoint()
	if err != nil {
		return "", fmt.Errorf("serve: final checkpoint at t=%d: %v", s.sim.Now(), err)
	}
	path, evicted, err := s.ring.add(cp)
	if err != nil {
		return "", err
	}
	s.ckptsWritten.Add(1)
	s.ckptsEvicted.Add(int64(len(evicted)))
	s.traceMark(trace.CheckpointMark, cp.At(), path)
	return path, nil
}
