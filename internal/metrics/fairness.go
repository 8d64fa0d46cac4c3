package metrics

import (
	"slices"
	"sort"

	"dismem/internal/stats"
)

// UserStats aggregates one user's outcomes for fairness analysis.
type UserStats struct {
	User      int
	Jobs      int
	MeanWait  float64
	MeanBSld  float64
	NodeHours float64
}

// FairnessReport captures how evenly the system treated its users: the
// standard complaint against aggressive backfilling and against
// memory-aware admission (large-memory users could starve).
type FairnessReport struct {
	Users []UserStats
	// JainWait is Jain's fairness index over per-user mean waits
	// inverted into "service speed" (1/(1+wait)); 1 means every user
	// experienced the same mean wait.
	JainWait float64
	// GiniNodeHours measures inequality of delivered node-hours. Note
	// that demand itself is unequal, so this is descriptive rather
	// than normative.
	GiniNodeHours float64
	// WorstUserMeanWait and BestUserMeanWait bracket the spread.
	WorstUserMeanWait, BestUserMeanWait float64
}

// userAcc is one user's incremental fairness tally, maintained by
// Recorder.Add in both modes — O(users) memory, so per-user fairness
// survives bounded (non-retaining) runs. The accumulation order is the
// record order, exactly what a scan over retained records would sum.
// A recorder keeps its tallies in one slice, ascending by user, so a
// clone copies one slice and Fairness and State need no sort.
type userAcc struct {
	user      int
	jobs      int
	wait      float64
	bsld      float64
	nodeHours float64
}

// tallyUser folds one record into the per-user accumulators, inserting
// the user at their first non-rejected record.
func (rec *Recorder) tallyUser(r JobRecord) {
	if r.Rejected {
		return
	}
	i := sort.Search(len(rec.users), func(i int) bool { return rec.users[i].user >= r.User })
	if i == len(rec.users) || rec.users[i].user != r.User {
		rec.users = slices.Insert(rec.users, i, userAcc{user: r.User})
	}
	a := &rec.users[i]
	a.jobs++
	a.wait += float64(r.Wait())
	a.bsld += r.BoundedSlowdown()
	a.nodeHours += float64(r.Nodes) * float64(r.Runtime()) / 3600
}

// Fairness reduces the recorder's per-user tallies to fairness
// statistics. Rejected jobs are excluded (they carry no wait). Users
// with no completed jobs do not appear. Works in both recorder modes.
func (rec *Recorder) Fairness() *FairnessReport {
	fr := &FairnessReport{}
	n := len(rec.users)
	if n == 0 {
		return fr
	}
	fr.Users = make([]UserStats, n)
	hours := make([]float64, n)
	for i, a := range rec.users {
		us := UserStats{
			User:      a.user,
			Jobs:      a.jobs,
			MeanWait:  a.wait / float64(a.jobs),
			MeanBSld:  a.bsld / float64(a.jobs),
			NodeHours: a.nodeHours,
		}
		fr.Users[i] = us
		hours[i] = us.NodeHours
		if i == 0 || us.MeanWait > fr.WorstUserMeanWait {
			fr.WorstUserMeanWait = us.MeanWait
		}
		if i == 0 || us.MeanWait < fr.BestUserMeanWait {
			fr.BestUserMeanWait = us.MeanWait
		}
	}
	fr.JainWait = rec.JainWait()
	fr.GiniNodeHours = stats.Gini(hours)
	return fr
}

// JainWait is Fairness().JainWait without building the rest of the
// report: Jain's index over the users' service speeds 1/(1+mean wait),
// folded over the tallies in user order, 0 with no users. It
// allocates nothing.
func (rec *Recorder) JainWait() float64 {
	var sum, sumSq float64
	for _, a := range rec.users {
		x := 1 / (1 + a.wait/float64(a.jobs))
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(rec.users)) * sumSq)
}
