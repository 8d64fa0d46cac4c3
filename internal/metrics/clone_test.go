package metrics

import (
	"testing"

	"dismem/internal/cluster"
	"dismem/internal/stats"
)

// synthRecord builds a deterministic pseudo-random job record stream.
func synthRecord(rng *stats.RNG, id int) JobRecord {
	sub := int64(id * 60)
	wait := rng.Int63n(4000)
	run := rng.Int63n(7000) + 10
	r := JobRecord{
		ID: id, User: id % 7, Nodes: 1 + id%5,
		Submit: sub, Start: sub + wait, End: sub + wait + run,
		Estimate: run + 100, Limit: run + 100,
		BaseRuntime: run, MemPerNode: 1024,
		Dilation: 1,
	}
	if id%3 == 0 {
		r.RemoteMiB = 512
		r.RemoteFrac = 0.5
		r.Dilation = 1 + rng.Float64()
	}
	return r
}

// TestBoundedPercentilesExactForSmallStreams pins the satellite bugfix:
// for streams up to stats.ExactQuantileBuffer jobs, the bounded
// recorder's four percentile fields must equal the retain-all
// recorder's exactly, not approximately.
func TestBoundedPercentilesExactForSmallStreams(t *testing.T) {
	cfg := cluster.DefaultConfig()
	for _, n := range []int{1, 7, 100, stats.ExactQuantileBuffer} {
		exact, bounded := NewRecorder(), NewBoundedRecorder()
		rng1, rng2 := stats.NewRNG(5), stats.NewRNG(5)
		for i := 1; i <= n; i++ {
			exact.Add(synthRecord(rng1, i))
			bounded.Add(synthRecord(rng2, i))
		}
		re, rb := exact.Report(cfg), bounded.Report(cfg)
		if re.P95Wait != rb.P95Wait || re.P99Wait != rb.P99Wait {
			t.Fatalf("n=%d: wait percentiles exact=%v/%v bounded=%v/%v",
				n, re.P95Wait, re.P99Wait, rb.P95Wait, rb.P99Wait)
		}
		if re.P95BSld != rb.P95BSld {
			t.Fatalf("n=%d: P95BSld exact=%v bounded=%v", n, re.P95BSld, rb.P95BSld)
		}
		if re.P95DilationRemote != rb.P95DilationRemote {
			t.Fatalf("n=%d: P95DilationRemote exact=%v bounded=%v",
				n, re.P95DilationRemote, rb.P95DilationRemote)
		}
	}
}

// TestRecorderCloneBothModes verifies the checkpoint contract: a clone
// carries identical state, produces an identical report for identical
// suffixes, and never shares mutable state with the original.
func TestRecorderCloneBothModes(t *testing.T) {
	cfg := cluster.DefaultConfig()
	for _, bounded := range []bool{false, true} {
		rec := NewRecorder()
		if bounded {
			rec = NewBoundedRecorder()
		}
		rng := stats.NewRNG(13)
		u := cluster.Usage{BusyNodes: 10, UsedLocal: 4096, UsedPool: 1024, PoolDemand: 2}
		for i := 1; i <= 200; i++ {
			rec.Observe(int64(i*30), u)
			rec.OnSubmit(int64(i * 30))
			rec.Add(synthRecord(rng, i))
		}
		c := rec.Clone()

		// Identical suffixes on both must keep reports identical.
		rngA, rngB := stats.NewRNG(17), stats.NewRNG(17)
		for i := 201; i <= 300; i++ {
			rec.Observe(int64(i*30), u)
			rec.Add(synthRecord(rngA, i))
			c.Observe(int64(i*30), u)
			c.Add(synthRecord(rngB, i))
		}
		ra, rb := rec.Report(cfg), c.Report(cfg)
		if *ra != *rb {
			t.Fatalf("bounded=%v: reports diverged on identical suffix:\n%+v\n%+v", bounded, ra, rb)
		}
		fa, fb := rec.Fairness(), c.Fairness()
		if fa.JainWait != fb.JainWait || fa.GiniNodeHours != fb.GiniNodeHours {
			t.Fatalf("bounded=%v: fairness diverged", bounded)
		}

		// Divergent suffix must not leak.
		before := rec.Report(cfg).Completed
		c.Add(synthRecord(stats.NewRNG(99), 999))
		if rec.Report(cfg).Completed != before {
			t.Fatalf("bounded=%v: clone Add leaked into original", bounded)
		}
		if !bounded {
			recs := rec.Records()
			if len(recs) == len(c.Records()) {
				t.Fatalf("bounded=%v: record slices still coupled", bounded)
			}
		}
	}
}
