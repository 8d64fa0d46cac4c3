package metrics

import (
	"math"
	"testing"

	"dismem/internal/stats"
)

func addJob(rec *Recorder, id, user, nodes int, submit, start, end int64) {
	rec.Add(JobRecord{
		ID: id, User: user, Nodes: nodes,
		Submit: submit, Start: start, End: end, Dilation: 1,
	})
}

func TestFairnessPerUserAggregation(t *testing.T) {
	rec := NewRecorder()
	// User 1: waits 10 and 30 (mean 20); user 2: wait 0.
	addJob(rec, 1, 1, 2, 0, 10, 110)
	addJob(rec, 2, 1, 4, 100, 130, 230)
	addJob(rec, 3, 2, 1, 50, 50, 150)
	rec.Add(JobRecord{ID: 4, User: 3, Rejected: true}) // excluded

	fr := rec.Fairness()
	if len(fr.Users) != 2 {
		t.Fatalf("users = %d, want 2 (rejected-only user excluded)", len(fr.Users))
	}
	u1, u2 := fr.Users[0], fr.Users[1]
	if u1.User != 1 || u2.User != 2 {
		t.Fatalf("user order = %d,%d", u1.User, u2.User)
	}
	if u1.Jobs != 2 || u1.MeanWait != 20 {
		t.Fatalf("user1 = %+v", u1)
	}
	if u2.MeanWait != 0 {
		t.Fatalf("user2 mean wait = %g", u2.MeanWait)
	}
	// Node-hours: user1 = (2*100 + 4*100)/3600, user2 = 100/3600.
	if want := 600.0 / 3600; math.Abs(u1.NodeHours-want) > 1e-12 {
		t.Fatalf("user1 node-hours = %g, want %g", u1.NodeHours, want)
	}
	if fr.WorstUserMeanWait != 20 || fr.BestUserMeanWait != 0 {
		t.Fatalf("spread = [%g,%g], want [0,20]", fr.BestUserMeanWait, fr.WorstUserMeanWait)
	}
}

func TestFairnessIndices(t *testing.T) {
	// Perfectly equal users → Jain 1, equal node-hours → Gini 0.
	rec := NewRecorder()
	addJob(rec, 1, 1, 1, 0, 5, 105)
	addJob(rec, 2, 2, 1, 0, 5, 105)
	fr := rec.Fairness()
	if math.Abs(fr.JainWait-1) > 1e-12 {
		t.Fatalf("JainWait = %g, want 1 for identical users", fr.JainWait)
	}
	if math.Abs(fr.GiniNodeHours) > 1e-12 {
		t.Fatalf("GiniNodeHours = %g, want 0", fr.GiniNodeHours)
	}

	// Extremely unequal waits → Jain well below 1.
	rec2 := NewRecorder()
	addJob(rec2, 1, 1, 1, 0, 0, 100)         // wait 0
	addJob(rec2, 2, 2, 1, 0, 100000, 100100) // wait 1e5
	fr2 := rec2.Fairness()
	if fr2.JainWait > 0.6 {
		t.Fatalf("JainWait = %g for maximally unequal users, want << 1", fr2.JainWait)
	}
}

func TestFairnessEmpty(t *testing.T) {
	fr := NewRecorder().Fairness()
	if len(fr.Users) != 0 || fr.JainWait != 0 {
		t.Fatalf("empty fairness = %+v", fr)
	}
}

// TestJainWaitMatchesFairness requires JainWait to equal, bit for bit,
// both Fairness().JainWait and the map-and-sort oracle's index (the
// reduction Fairness made before JainWait existed) for recorders that
// retain, that are bounded and that were cloned mid-stream, with no
// users, one user and thousands of them, and to allocate nothing.
func TestJainWaitMatchesFairness(t *testing.T) {
	rng := stats.NewRNG(53)
	for _, users := range []int{0, 1, 5000} {
		n := 4 * users
		if users == 0 {
			n = 30 // rejected records only: no user gets a tally
		}
		recs := rankedRecords(rng, 1, n, max(users, 1))
		if users == 0 {
			for i := range recs {
				recs[i].Rejected = true
			}
		}
		want := math.Float64bits(fairnessRef(recs).JainWait)
		for _, mode := range []string{"retain", "bounded", "cloned"} {
			rec := NewRecorder()
			if mode == "bounded" {
				rec = NewBoundedRecorder()
			}
			for i, r := range recs {
				if mode == "cloned" && i == len(recs)/2 {
					rec = rec.Clone()
				}
				rec.Add(r)
			}
			got := rec.JainWait()
			if math.Float64bits(got) != want || math.Float64bits(rec.Fairness().JainWait) != want {
				t.Errorf("%d users, %s: JainWait %v, Fairness().JainWait %v, oracle %v",
					users, mode, got, rec.Fairness().JainWait, math.Float64frombits(want))
			}
			if allocs := testing.AllocsPerRun(10, func() { rec.JainWait() }); allocs != 0 {
				t.Errorf("%d users, %s: JainWait allocates %v times", users, mode, allocs)
			}
		}
	}
}
