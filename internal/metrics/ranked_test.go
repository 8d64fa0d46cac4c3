package metrics

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"dismem/internal/cluster"
	"dismem/internal/stats"
)

// rankedRecords returns n records of a seeded stream with rejections,
// pool-holding jobs with random dilations, tied waits and users drawn
// from users IDs (SWF's -1, "unknown", among them).
func rankedRecords(rng *stats.RNG, from, n, users int) []JobRecord {
	out := make([]JobRecord, n)
	for i := range out {
		id := from + i
		r := synthRecord(rng, id)
		r.User = rng.Intn(users) - 1
		r.Rejected = rng.Intn(23) == 0
		if rng.Intn(5) == 0 {
			r.Start = r.Submit + 60*rng.Int63n(4) // tied waits
		}
		out[i] = r
	}
	return out
}

// freshReport is the report and fairness of a recorder fed recs
// directly: no clone, no ranked prefix.
func freshReport(cfg cluster.Config, recs ...[]JobRecord) (Report, *FairnessReport) {
	rec := NewRecorder()
	for _, rs := range recs {
		for _, r := range rs {
			rec.Add(r)
		}
	}
	return *rec.Report(cfg), rec.Fairness()
}

// checkFork requires fork's report and fairness to equal those of a
// fresh recorder fed recs, and says which path its report took: the
// ranked prefix when fork's tail is shorter than it, else selection.
func checkFork(t *testing.T, name string, fork *Recorder, recs ...[]JobRecord) string {
	t.Helper()
	cfg := cluster.DefaultConfig()
	got := *fork.Report(cfg)
	want, wantFair := freshReport(cfg, recs...)
	if got != want {
		t.Fatalf("%s: fork report\n%+v\nwant\n%+v", name, got, want)
	}
	if gotFair := fork.Fairness(); !reflect.DeepEqual(gotFair, wantFair) {
		t.Fatalf("%s: fork fairness\n%+v\nwant\n%+v", name, gotFair, wantFair)
	}
	pre := fork.ranked
	if pre == nil || fork.count()-pre.n >= pre.n {
		return "selected"
	}
	if pre.wait == nil {
		t.Fatalf("%s: the report did not rank the prefix", name)
	}
	return "ranked"
}

// TestForkReportMatchesFreshRecorder requires a fork's report, taken
// from its checkpoint's ranked prefix merged with its own tail, to
// equal that of a recorder fed the same records from scratch. Prefixes
// sit on both sides of a chunk boundary; tails are empty, one record,
// one shorter than the prefix (the ranked path), and as long as the
// prefix or longer (the selection fallback). The fork of a fork, a
// checkpoint restored from its State and a fork that keeps appending
// after its first report must agree too.
func TestForkReportMatchesFreshRecorder(t *testing.T) {
	rng := stats.NewRNG(41)
	paths := map[string]int{}
	for _, n := range []int{1, 255, 256, 257, 2000} {
		prefix := rankedRecords(rng, 1, n, 40)
		live := NewRecorder()
		for _, r := range prefix {
			live.Add(r)
		}
		cp := live.Clone()
		if cp.ranked == nil || cp.ranked.n != n {
			t.Fatalf("n=%d: a checkpoint's clone carries prefix %+v, want one of %d records", n, cp.ranked, n)
		}
		restored, err := RecorderFromState(cp.State())
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []int{0, 1, n - 1, n, n + 300} {
			tail := rankedRecords(rng, n+1, m, 40)
			for src, from := range map[string]*Recorder{"checkpoint": cp, "restored": restored} {
				fork := from.Clone()
				if fork.ranked != from.ranked {
					t.Fatalf("n=%d: a fork of the %s does not share its prefix", n, src)
				}
				for _, r := range tail {
					fork.Add(r)
				}
				name := fmt.Sprintf("n=%d tail=%d from the %s", n, m, src)
				path := checkFork(t, name, fork, prefix, tail)
				paths[path]++
				if want := m < n; (path == "ranked") != want {
					t.Fatalf("%s: report %s, want ranked=%v", name, path, want)
				}
			}
		}

		// A fork that reports, appends across a chunk boundary and
		// reports again; then a checkpoint of it, forked once more.
		fork := cp.Clone()
		tail := rankedRecords(rng, n+1, n/2+1, 40)
		for _, r := range tail[:len(tail)/2] {
			fork.Add(r)
		}
		checkFork(t, fmt.Sprintf("n=%d growing fork, first report", n), fork, prefix, tail[:len(tail)/2])
		for _, r := range tail[len(tail)/2:] {
			fork.Add(r)
		}
		checkFork(t, fmt.Sprintf("n=%d growing fork, second report", n), fork, prefix, tail)
		cp2 := fork.Clone()
		if cp2.ranked == fork.ranked || cp2.ranked.n != n+len(tail) {
			t.Fatalf("n=%d: a checkpoint of a fork did not get a fresh prefix of %d records", n, n+len(tail))
		}
		fork2 := cp2.Clone()
		tail2 := rankedRecords(rng, n+len(tail)+1, 17, 40)
		for _, r := range tail2 {
			fork2.Add(r)
		}
		paths[checkFork(t, fmt.Sprintf("n=%d fork of a fork", n), fork2, prefix, tail, tail2)]++
	}
	t.Logf("report paths: %v", paths)
	if paths["ranked"] == 0 || paths["selected"] == 0 {
		t.Fatalf("report paths %v, want both the ranked path and the selection fallback", paths)
	}
}

// TestConcurrentForksRankOnce clones one unbuilt ranked recorder on 16
// goroutines, each appending its own tail and reporting, so they race
// to build the shared ranking. Each report must equal the serial one
// (run it under -race).
func TestConcurrentForksRankOnce(t *testing.T) {
	cfg := cluster.DefaultConfig()
	rng := stats.NewRNG(43)
	const n, forks = 1500, 16
	prefix := rankedRecords(rng, 1, n, 64)
	live := NewRecorder()
	for _, r := range prefix {
		live.Add(r)
	}
	cp := live.Clone()
	tails := make([][]JobRecord, forks)
	want := make([]Report, forks)
	for i := range tails {
		tails[i] = rankedRecords(rng, n+1, 1+rng.Intn(300), 64)
		want[i], _ = freshReport(cfg, prefix, tails[i])
	}
	got := make([]Report, forks)
	var wg sync.WaitGroup
	for i := range tails {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fork := cp.Clone()
			for _, r := range tails[i] {
				fork.Add(r)
			}
			got[i] = *fork.Report(cfg)
		}()
	}
	wg.Wait()
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("fork %d: concurrent report\n%+v\nwant\n%+v", i, got[i], want[i])
		}
	}
	if cp.ranked.wait == nil {
		t.Fatal("no fork built the shared ranking")
	}
}

// fairnessRef is the map-and-sort Fairness that user-ordered tallies
// replaced, kept as its oracle: it tallies recs per user in a map,
// then sorts the users.
func fairnessRef(recs []JobRecord) *FairnessReport {
	byUser := map[int]*userAcc{}
	for _, r := range recs {
		if r.Rejected {
			continue
		}
		a := byUser[r.User]
		if a == nil {
			a = &userAcc{}
			byUser[r.User] = a
		}
		a.jobs++
		a.wait += float64(r.Wait())
		a.bsld += r.BoundedSlowdown()
		a.nodeHours += float64(r.Nodes) * float64(r.Runtime()) / 3600
	}
	fr := &FairnessReport{}
	var speeds, hours []float64
	for user, a := range byUser {
		fr.Users = append(fr.Users, UserStats{
			User:      user,
			Jobs:      a.jobs,
			MeanWait:  a.wait / float64(a.jobs),
			MeanBSld:  a.bsld / float64(a.jobs),
			NodeHours: a.nodeHours,
		})
	}
	sort.Slice(fr.Users, func(i, j int) bool { return fr.Users[i].User < fr.Users[j].User })
	for i, us := range fr.Users {
		speeds = append(speeds, 1/(1+us.MeanWait))
		hours = append(hours, us.NodeHours)
		if i == 0 || us.MeanWait > fr.WorstUserMeanWait {
			fr.WorstUserMeanWait = us.MeanWait
		}
		if i == 0 || us.MeanWait < fr.BestUserMeanWait {
			fr.BestUserMeanWait = us.MeanWait
		}
	}
	fr.JainWait = stats.JainIndex(speeds)
	fr.GiniNodeHours = stats.Gini(hours)
	return fr
}

// TestFairnessMatchesMapOracle requires the user-ordered tallies to
// reduce to exactly the map-and-sort oracle's report, in both recorder
// modes, through a clone and through a State round trip, over random
// user populations from one user to hundreds. A bounded clone must
// carry no ranked prefix: only retained records are ranked.
func TestFairnessMatchesMapOracle(t *testing.T) {
	rng := stats.NewRNG(47)
	for trial := 0; trial < 200; trial++ {
		users := 1 + rng.Intn(600)
		recs := rankedRecords(rng, 1, rng.Intn(1500), users)
		want := fairnessRef(recs)
		for _, bounded := range []bool{false, true} {
			rec := NewRecorder()
			if bounded {
				rec = NewBoundedRecorder()
			}
			for i, r := range recs {
				if i == len(recs)/2 {
					rec = rec.Clone()
					if bounded && rec.ranked != nil {
						t.Fatal("a bounded recorder's clone carries a ranked prefix")
					}
				}
				rec.Add(r)
			}
			restored, err := RecorderFromState(rec.State())
			if err != nil {
				t.Fatal(err)
			}
			for name, r := range map[string]*Recorder{"recorder": rec, "restored": restored} {
				if got := r.Fairness(); !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d (%d users, %d records, bounded=%v) %s: fairness\n%+v\nwant\n%+v",
						trial, users, len(recs), bounded, name, got, want)
				}
			}
		}
	}
}
