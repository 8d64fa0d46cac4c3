package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dismem"
	"dismem/internal/serve"
)

// The whatif workload drives dmserve, the repository's what-if service,
// as a child process over a loopback socket. Each baseline is memaware
// on whatifJobs synthetic jobs with a ring checkpoint every
// whatifCkptEvery simulated seconds, driven to completion at set-up.
// Queries fork a ring checkpoint and replay a 30 to 60 minute future.
//
// A 2000-job baseline's queue depth, and with it the cost of replaying
// a future, varies by a fifth between seeds, so one run serves
// whatifBaselines baselines in turn, each from its own seed, and gives
// each an equal share of the open and the closed loop. The baselines
// are the same on every run, seeds 1 to whatifBaselines, like a
// service's long-lived state; --seed draws the queries sent to them.
// Drawing the baselines too would make a run's cost depend on which
// six it got, by more than the end-to-end bounds allow.
const (
	whatifJobs      = 2000
	whatifCkptEvery = 7200
	whatifBaselines = 6
	// whatifRate is the open-loop arrival rate, about a quarter of what
	// two connections sustain on a 2-CPU machine, so latency is measured
	// without a backlog. It is a constant so every commit is measured at
	// the same load. A 30 s run gives each baseline 3 s of open loop:
	// 1500 queries, fifteen beyond the p99.
	whatifRate = 500
	// whatifTimeout bounds one query; a query that fails counts with
	// this latency, so it misses any latency limit below it.
	whatifTimeout = 5 * time.Second
	// verifyEvery picks the open-loop queries whose responses are
	// compared byte for byte with the offline fork path.
	verifyEvery = 97
)

// ringEntry is one checkpoint listed by GET /v1/checkpoints.
type ringEntry struct {
	At   int64  `json:"at"`
	File string `json:"file"`
}

// query is one what-if request of the mix.
type query struct {
	req  serve.WhatIfRequest
	body []byte
	file string // the ring file the query forks
}

// queryMix draws n queries from seed: the fork instant uniform over the
// ring, the horizon 1800 to 3600 s past it on a 600 s grid, and one of
// three kinds: a rack outage in the future, a switch to the
// disaggregation-oblivious policy, or a plain horizon extension.
func queryMix(seed uint64, ring []ringEntry, n int) []query {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	qs := make([]query, n)
	for i := range qs {
		e := ring[rng.IntN(len(ring))]
		req := serve.WhatIfRequest{At: e.At, Horizon: e.At + 1800 + 600*int64(rng.IntN(4))}
		switch rng.IntN(3) {
		case 0:
			down := e.At + 60*int64(1+rng.IntN(10))
			req.Scenario = fmt.Sprintf("at=%d down rack=%d; at=%d up rack=%d",
				down, rng.IntN(16), down+1200*int64(1+rng.IntN(3)), rng.IntN(16))
		case 1:
			req.Policy = "easy-oblivious"
		}
		qs[i] = newQuery(req, e.File)
	}
	return qs
}

func newQuery(req serve.WhatIfRequest, file string) query {
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // a struct of strings and integers always encodes
	}
	return query{req: req, body: b, file: file}
}

// dmserve is a running dmserve child process.
type dmserve struct {
	cmd    *exec.Cmd
	exited chan error
	url    string
}

// startDmserve starts dmserve over the ring directory dir for the
// baseline of seed, waits until the baseline has drained, and returns
// the server with the seconds that took.
func startDmserve(dir string, seed uint64) (*dmserve, float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	listening := make(chan string, 1)
	cmd := exec.Command(filepath.Join(filepath.Dir(self), "dmserve"),
		"-addr", "127.0.0.1:0", "-policy", "memaware",
		"-jobs", fmt.Sprint(whatifJobs), "-seed", fmt.Sprint(seed),
		"-ckpt-dir", dir, "-ckpt-every", fmt.Sprint(whatifCkptEvery), "-ckpt-keep", "0")
	cmd.Stderr = &listenWriter{addr: listening}
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	d := &dmserve{cmd: cmd, exited: make(chan error, 1)}
	go func() { d.exited <- cmd.Wait() }()
	select {
	case a := <-listening:
		d.url = "http://" + a
	case err := <-d.exited:
		return nil, 0, fmt.Errorf("dmserve exited before listening: %v", err)
	case <-time.After(time.Minute):
		d.stop()
		return nil, 0, fmt.Errorf("dmserve did not listen within a minute")
	}
	cl := newClient(d.url)
	defer cl.close()
	for {
		var st serve.Status
		if err := cl.get("/v1/status", &st); err != nil {
			d.stop()
			return nil, 0, err
		}
		if st.BaselineDone {
			return d, time.Since(start).Seconds(), nil
		}
		time.Sleep(time.Millisecond)
	}
}

// stop interrupts the server and waits for it to exit, killing it if it
// has not within ten seconds. Its exit status is that of an interrupted
// server, so it is not an error here.
func (d *dmserve) stop() {
	_ = d.cmd.Process.Signal(os.Interrupt) // fails only if it has exited, which the wait below sees
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// listenWriter passes dmserve's standard error through and sends the
// address from its "listening on" line to addr, once. Only the goroutine
// copying the child's output touches its fields.
type listenWriter struct {
	buf  []byte
	addr chan string
}

func (w *listenWriter) Write(p []byte) (int, error) {
	os.Stderr.Write(p)
	if w.addr == nil {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	const mark = "listening on "
	if i := bytes.Index(w.buf, []byte(mark)); i >= 0 {
		rest := w.buf[i+len(mark):]
		if j := bytes.IndexAny(rest, " \n"); j >= 0 {
			w.addr <- string(rest[:j])
			w.addr, w.buf = nil, nil
		}
	}
	return len(p), nil
}

// client posts queries over at most nproc connections.
type client struct {
	base string
	http *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc, DisableCompression: true}
	return &client{base: base, http: &http.Client{Transport: tr, Timeout: whatifTimeout}}
}

func (c *client) close() { c.http.Transport.(*http.Transport).CloseIdleConnections() }

// post sends one what-if query and returns the response body; any
// transport error, timeout or non-200 status is an error.
func (c *client) post(q query) ([]byte, error) {
	resp, err := c.http.Post(c.base+"/v1/whatif", "application/json", bytes.NewReader(q.body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// get decodes a GET endpoint's JSON body into v.
func (c *client) get(path string, v any) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// vars scrapes dmserve's /debug/vars: its per-server counters and the
// process's cumulative heap allocation count.
func (c *client) vars() (counters map[string]float64, mallocs float64, err error) {
	var vars map[string]json.RawMessage
	if err := c.get("/debug/vars", &vars); err != nil {
		return nil, 0, err
	}
	var ms struct{ Mallocs float64 }
	if err := json.Unmarshal(vars["dmserve"], &counters); err != nil {
		return nil, 0, fmt.Errorf("/debug/vars: %w", err)
	}
	if err := json.Unmarshal(vars["memstats"], &ms); err != nil {
		return nil, 0, fmt.Errorf("/debug/vars memstats: %w", err)
	}
	return counters, ms.Mallocs, nil
}

// openLoop sends qs[i] at start + i/whatifRate for d, from a generator
// handing each query to one of nproc connection workers. A handoff
// blocks while every worker is busy, so a stall shows up as generator
// lateness and in the latency of every later query, each timed from its
// due instant. It returns the sorted latencies in ms, the generator's
// largest lateness in ms, and the bodies of the queries to verify.
func (c *client) openLoop(qs []query, d time.Duration, r *result) (lat []float64, lateMax float64, verify map[int][]byte) {
	type due struct {
		i  int
		at time.Time
	}
	var mu sync.Mutex
	verify = map[int][]byte{}
	work := make(chan due)
	var wg sync.WaitGroup
	for k := 0; k < nproc; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range work {
				body, err := c.post(qs[j.i%len(qs)])
				ms := float64(time.Since(j.at).Nanoseconds()) / 1e6
				if err != nil {
					ms = math.Max(ms, float64(whatifTimeout.Milliseconds()))
				}
				mu.Lock()
				r.check(err == nil, "open-loop query %d: %v", j.i, err)
				lat = append(lat, ms)
				if err == nil && j.i%verifyEvery == 0 {
					verify[j.i] = body
				}
				mu.Unlock()
			}
		}()
	}
	start := time.Now()
	interval := time.Second / whatifRate
	for i := 0; i < int(whatifRate*d.Seconds()); i++ {
		at := start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(at))
		work <- due{i, at}
		lateMax = math.Max(lateMax, float64(time.Since(at).Nanoseconds())/1e6)
	}
	close(work)
	wg.Wait()
	sort.Float64s(lat)
	return lat, lateMax, verify
}

// closedLoop keeps nproc connections busy for d, each sending its next
// query as soon as the previous answer arrives, and returns the number
// of completed queries and the loop's wall time in seconds.
func (c *client) closedLoop(qs []query, d time.Duration, r *result) (completed, wall float64) {
	var next, ok atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < nproc; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				i := int(next.Add(1))
				_, err := c.post(qs[i%len(qs)])
				if err == nil {
					ok.Add(1)
				}
				mu.Lock()
				r.check(err == nil, "closed-loop query %d: %v", i, err)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return float64(ok.Load()), time.Since(start).Seconds()
}

// baselineRun is what one baseline's share of a run measured.
type baselineRun struct {
	setup, p99, lateMax  float64
	closedOK, closedWall float64 // completed closed-loop queries, loop seconds
	allocs, closedServed float64 // the server's, over the closed loop
	lat                  []float64
	hits, served         float64 // from /debug/vars
	forks, forkNs        float64
	qs                   []query
}

// measureBaseline serves the baseline of seed from a dmserve process
// in dir, queried by the mix drawn from mixSeed: warm-up, open loop for
// open, closed loop for closed with a /debug/vars scrape on each side,
// then the byte-for-byte check of the sampled responses.
func measureBaseline(dir string, seed, mixSeed uint64, open, closed time.Duration, r *result) (*baselineRun, error) {
	d, setup, err := startDmserve(dir, seed)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	cl := newClient(d.url)
	defer cl.close()
	var ring struct {
		Checkpoints []ringEntry `json:"checkpoints"`
	}
	if err := cl.get("/v1/checkpoints", &ring); err != nil {
		return nil, err
	}
	if len(ring.Checkpoints) == 0 {
		return nil, fmt.Errorf("the baseline wrote no checkpoints")
	}
	qs := queryMix(mixSeed, ring.Checkpoints, 4096)

	// Warm the service's baseline cache: one plain query per
	// (checkpoint, horizon) window the mix can pick.
	for _, e := range ring.Checkpoints {
		for k := int64(0); k < 4; k++ {
			_, err := cl.post(newQuery(serve.WhatIfRequest{At: e.At, Horizon: e.At + 1800 + 600*k}, e.File))
			r.check(err == nil, "warm-up query: %v", err)
		}
	}
	b := &baselineRun{setup: setup, qs: qs}
	var verify map[int][]byte
	b.lat, b.lateMax, verify = cl.openLoop(qs, open, r)
	b.p99 = percentile(b.lat, 99)
	sv0, m0, err := cl.vars()
	if err != nil {
		return nil, err
	}
	b.closedOK, b.closedWall = cl.closedLoop(qs, closed, r)
	sv, m1, err := cl.vars()
	if err != nil {
		return nil, err
	}
	b.allocs, b.closedServed = m1-m0, sv["queries_served"]-sv0["queries_served"]
	note("whatif: seed %d: %d ring checkpoints, set-up %.3f s, %d open-loop queries, p50 %.3f ms, p99 %.3f ms, generator late by at most %.3f ms; closed loop %.0f q/s, %.0f allocations per query",
		seed, len(ring.Checkpoints), setup, len(b.lat), percentile(b.lat, 50), b.p99, b.lateMax,
		b.closedOK/b.closedWall, b.allocs/b.closedServed)
	b.hits, b.served, b.forks, b.forkNs = sv["baseline_cache_hits"], sv["queries_served"], sv["forks_total"], sv["fork_ns_total"]

	for i, got := range verify {
		want, err := offlineResponse(qs[i%len(qs)])
		if err != nil {
			return nil, err
		}
		r.check(bytes.Equal(got, want), "query %d: service response differs from the offline fork path", i)
	}
	return b, nil
}

func runWhatIf(c config) (*result, error) {
	r := newResult()
	root, err := os.MkdirTemp("", "perfbench-whatif-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	note("whatif: %d baselines of %d jobs, open loop at %d q/s, then a closed loop on %d connections",
		whatifBaselines, whatifJobs, whatifRate, nproc)
	open := c.seconds * 3 / 5 / whatifBaselines
	closed := c.seconds * 2 / 5 / whatifBaselines
	var runs []*baselineRun
	for k := uint64(0); k < whatifBaselines; k++ {
		b, err := measureBaseline(filepath.Join(root, fmt.Sprint(k)), 1+k, c.seed*whatifBaselines+k, open, closed, r)
		if err != nil {
			return nil, err
		}
		runs = append(runs, b)
	}
	var lat, setups, p99s []float64
	var closedOK, closedWall, allocs, closedServed, lateMax, hits, served, forks, forkNs float64
	for _, b := range runs {
		lat = append(lat, b.lat...)
		setups = append(setups, b.setup)
		p99s = append(p99s, b.p99)
		closedOK, closedWall = closedOK+b.closedOK, closedWall+b.closedWall
		allocs, closedServed = allocs+b.allocs, closedServed+b.closedServed
		lateMax = max(lateMax, b.lateMax)
		hits, served, forks, forkNs = hits+b.hits, served+b.served, forks+b.forks, forkNs+b.forkNs
	}
	sort.Float64s(lat)
	p50 := percentile(lat, 50)
	// The p99 moves by a third from run to run on a shared 2-CPU
	// machine, more than any end-to-end bound allows, so it is a
	// detail, without a bound.
	r.detail("serve.p99_ms", median(p99s), "ms")
	r.detail("loadgen.late_ms_max", lateMax, "ms")
	if !c.trace {
		r.set("setup_s", median(setups), "s")
		r.set("latency_ms", p50, "ms")
		// Both are pooled over the baselines, whose state sizes, and
		// with them the cost of a query, differ by a fifth.
		r.set("ops_per_s", closedOK/closedWall, "1/s")
		r.set("allocs_per_op", allocs/closedServed, "count")
		return r.finish(), nil
	}
	r.detail("serve.baseline_hit_ratio", hits/served, "ratio")
	r.detail("serve.fork_us_mean", forkNs/forks/1e3, "us")
	// The offline replay takes its queries from every baseline in turn.
	var mix []query
	for i := range runs[0].qs {
		for _, b := range runs {
			mix = append(mix, b.qs[i])
		}
	}
	if err := forkLayers(r, mix, c.seconds/5, p50, lat); err != nil {
		return nil, err
	}
	return r.finish(), nil
}

// forkLayers replays the query mix offline for up to d: checkpoint file
// load, Fork and the future's replay, each timed, once plain and once
// with the scheduler wrapped. The wrapped replay must report what the
// plain one does, and its tally gives the engine's layer metrics. p50
// and lat are the open-loop latencies, against which the offline cost
// is the service's modelled cost per query.
func forkLayers(r *result, qs []query, d time.Duration, p50 float64, lat []float64) error {
	var load, size, fork, replay, plain, traced []float64
	// dmserve runs its baseline on the default machine.
	t := &tally{machine: dismem.DefaultMachine()}
	var events uint64
	start := time.Now()
	for i := 0; i < len(qs) && (i < 10 || time.Since(start) < d); i++ {
		q := qs[i]
		t0 := time.Now()
		cp, err := dismem.ReadCheckpointFile(q.file)
		if err != nil {
			return err
		}
		load = append(load, time.Since(t0).Seconds()*1e3)
		st, err := os.Stat(q.file)
		if err != nil {
			return err
		}
		size = append(size, float64(st.Size()))

		policy := q.req.Policy
		if policy == "" {
			policy = cp.Policy()
		}
		tapped := forkOptions(q.req)
		if tapped.SchedulerImpl, err = tappedScheduler(policy, t); err != nil {
			return err
		}
		// The plain and the wrapped fork alternate in running first, so
		// neither always finds the checkpoint's memory warm.
		var res, tres *dismem.Result
		for k := 0; k < 2; k++ {
			if (i+k)%2 == 0 {
				t1 := time.Now()
				f, err := dismem.Fork(cp, forkOptions(q.req))
				if err != nil {
					return err
				}
				t2 := time.Now()
				if res, err = f.Run(); err != nil {
					return err
				}
				t3 := time.Now()
				fork = append(fork, t2.Sub(t1).Seconds()*1e6)
				replay = append(replay, t3.Sub(t2).Seconds()*1e3)
				plain = append(plain, t3.Sub(t1).Seconds())
				continue
			}
			t4 := time.Now()
			f, err := dismem.Fork(cp, tapped)
			if err != nil {
				return err
			}
			if tres, err = f.Run(); err != nil {
				return err
			}
			traced = append(traced, time.Since(t4).Seconds())
			events += tres.Events
		}
		r.check(summarize(tres) == summarize(res), "query %d: traced fork reports differently from the plain one", i)
	}
	forkUs, replayMs := median(fork), median(replay)
	r.detail("ckpt.load_ms", median(load), "ms")
	r.detail("ckpt.bytes", median(size), "bytes")
	r.detail("fork.fork_us", forkUs, "us")
	r.detail("fork.replay_ms", replayMs, "ms")
	r.detail("serve.overhead_ms", p50-forkUs/1e3-replayMs, "ms")
	r.detail("des.events", float64(events), "count")
	r.set("bench.trace_overhead_ratio", median(traced)/median(plain), "ratio")
	// A forked future's jobs are the ones it dispatches.
	if _, err := engineLayers(r, t, max(1, int(t.dispatches))); err != nil {
		return err
	}
	// Budget: every open-loop query modelled as one fork plus one
	// replay at their offline medians, against the summed latencies;
	// the residual is HTTP, JSON, the worker pool and queueing.
	wall := 0.0
	for _, l := range lat {
		wall += l / 1e3
	}
	setBudget(r, float64(len(lat))*(forkUs/1e6+replayMs/1e3), wall)
	return nil
}

func forkOptions(q serve.WhatIfRequest) dismem.ForkOptions {
	return dismem.ForkOptions{ScenarioSpec: q.Scenario, Policy: q.Policy, Horizon: q.Horizon}
}

// offlineResponse answers q without the service: load the ring file,
// fork it with the query's overrides and, for the deltas, without them,
// and encode the response the way the service does.
func offlineResponse(q query) ([]byte, error) {
	cp, err := dismem.ReadCheckpointFile(q.file)
	if err != nil {
		return nil, err
	}
	run := func(o dismem.ForkOptions) (serve.RunSummary, error) {
		f, err := dismem.Fork(cp, o)
		if err != nil {
			return serve.RunSummary{}, err
		}
		res, err := f.Run()
		if err != nil {
			return serve.RunSummary{}, err
		}
		return summarize(res), nil
	}
	got, err := run(forkOptions(q.req))
	if err != nil {
		return nil, err
	}
	base, err := run(dismem.ForkOptions{Horizon: q.req.Horizon})
	if err != nil {
		return nil, err
	}
	resp := serve.WhatIfResponse{
		CheckpointAt: cp.At(),
		Horizon:      q.req.Horizon,
		Report:       got,
		Baseline:     &base,
		Deltas: &serve.Deltas{
			Completed:         got.Completed - base.Completed,
			Killed:            got.Killed - base.Killed,
			MeanWaitSec:       got.MeanWaitSec - base.MeanWaitSec,
			P95WaitSec:        got.P95WaitSec - base.P95WaitSec,
			P99WaitSec:        got.P99WaitSec - base.P99WaitSec,
			MeanBSld:          got.MeanBSld - base.MeanBSld,
			P95BSld:           got.P95BSld - base.P95BSld,
			NodeUtil:          got.NodeUtil - base.NodeUtil,
			PoolUtil:          got.PoolUtil - base.PoolUtil,
			ThroughputPerHour: got.ThroughputPerHour - base.ThroughputPerHour,
			JainWait:          got.JainWait - base.JainWait,
		},
	}
	b, err := json.MarshalIndent(resp, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// summarize is the service's projection of a run onto its response.
func summarize(res *dismem.Result) serve.RunSummary {
	r := res.Report
	return serve.RunSummary{
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
		JainWait:          res.Recorder.Fairness().JainWait,
		Stopped:           res.Stopped,
	}
}
