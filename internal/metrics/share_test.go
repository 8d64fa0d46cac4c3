package metrics

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"dismem/internal/cluster"
	"dismem/internal/stats"
)

// TestCloneSharesRecordsInIsolation drives a recorder, its clone and a
// clone of that clone through interleaved appends that cross several
// chunk boundaries on each. Clones share chunks, so a write through
// one must never show in another: each one's Records must equal its
// own append history. Each one's state must also restore to a
// recorder whose Report and Fairness are bit-equal to its own.
func TestCloneSharesRecordsInIsolation(t *testing.T) {
	rng := stats.NewRNG(31)
	id := 0
	next := func() JobRecord {
		id++
		r := synthRecord(rng, id)
		r.User = id % 11
		r.Rejected = id%29 == 0
		return r
	}
	a := NewRecorder()
	hist := map[*Recorder][]JobRecord{}
	add := func(rec *Recorder) {
		r := next()
		rec.Add(r)
		hist[rec] = append(hist[rec], r)
	}
	// Leave a's last chunk part full, so the clones share it.
	for i := 0; i < recordChunk+recordChunk/3; i++ {
		add(a)
	}
	b := a.Clone()
	hist[b] = append([]JobRecord(nil), hist[a]...)
	for i := 0; i < recordChunk/2; i++ {
		add(a)
		add(b)
	}
	c := b.Clone()
	hist[c] = append([]JobRecord(nil), hist[b]...)
	recs := []*Recorder{a, b, c}
	for i := 0; i < 4*recordChunk*len(recs); i++ {
		add(recs[rng.Intn(len(recs))])
	}

	cfg := cluster.DefaultConfig()
	for i, rec := range recs {
		got, want := rec.Records(), hist[rec]
		if len(want) < 4*recordChunk {
			t.Fatalf("recorder %d: only %d appends, want several chunks", i, len(want))
		}
		if len(got) != len(want) {
			t.Fatalf("recorder %d: %d records, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("recorder %d: record %d = %+v, want %+v", i, j, got[j], want[j])
			}
		}
		restored, err := RecorderFromState(rec.State())
		if err != nil {
			t.Fatal(err)
		}
		if g, w := fmt.Sprintf("%v", *restored.Report(cfg)), fmt.Sprintf("%v", *rec.Report(cfg)); g != w {
			t.Fatalf("recorder %d: restored report\n%s\nwant\n%s", i, g, w)
		}
		if g, w := fmt.Sprintf("%v", *restored.Fairness()), fmt.Sprintf("%v", *rec.Fairness()); g != w {
			t.Fatalf("recorder %d: restored fairness\n%s\nwant\n%s", i, g, w)
		}
	}
}

const (
	budgetRecords = 20000
	// cloneAllocBudget and cloneByteBudget bound one Clone of a
	// recorder retaining budgetRecords records of 97 users. Measured 7
	// allocations and 8,024 B (the recorder, the chunk list, the map
	// and the one slab of user tallies), plus a margin of 1 allocation
	// and 8 KiB. Copying the records, or one allocation per user,
	// fails both: the copying Clone made 103 allocations of 2.4 MB.
	cloneAllocBudget = 8
	cloneByteBudget  = 16 << 10
	// reportAllocBudget, reportBytesPerRecord and reportByteSlack bound
	// one Report of the same recorder. Measured 2 allocations (the
	// Report and one selection buffer) and 156,032 B, 7.8 B per record:
	// the buffer holds one float per non-rejected record, rounded up to
	// whole pages. The margin is 5 KB, less than a second buffer of any
	// size; the sorting Report made 64 allocations of 2.0 MB.
	reportAllocBudget    = 2
	reportBytesPerRecord = 8
	reportByteSlack      = 1 << 10
)

// allocsAndBytes returns f's heap allocations and allocated bytes per
// call, averaged over runs calls after one warm-up call: the least of
// three such windows. MemStats counts the whole process, so a window
// can also catch an allocation the runtime makes on its own (the
// background scavenger grows its P's timer heap when it goes back to
// sleep after a GC); an allocation f makes per call shows in all three.
func allocsAndBytes(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	allocs, bytes = math.Inf(1), math.Inf(1)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		allocs = min(allocs, float64(after.Mallocs-before.Mallocs)/float64(runs))
		bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/float64(runs))
	}
	return allocs, bytes
}

// TestCloneAndReportCostBudget pins what a fork pays for the prefix
// it inherits: with budgetRecords records retained, a Clone copies
// O(records/chunk) slice headers and a Report allocates one buffer.
func TestCloneAndReportCostBudget(t *testing.T) {
	rec := NewRecorder()
	for _, r := range fakeRecords(budgetRecords) {
		r.User = r.ID % 97
		rec.Add(r)
	}
	cfg := cluster.DefaultConfig()
	var sink *Recorder
	allocs, bytes := allocsAndBytes(20, func() { sink = rec.Clone() })
	t.Logf("Clone: %.1f allocs, %.0f B", allocs, bytes)
	if allocs > cloneAllocBudget || bytes > cloneByteBudget {
		t.Errorf("Clone of %d records: %.1f allocs and %.0f B, budget %d and %d B — the clone copies the prefix",
			budgetRecords, allocs, bytes, cloneAllocBudget, cloneByteBudget)
	}
	var rp *Report
	allocs, bytes = allocsAndBytes(20, func() { rp = rec.Report(cfg) })
	t.Logf("Report: %.1f allocs, %.0f B (%.2f B/record)", allocs, bytes, bytes/budgetRecords)
	if limit := float64(reportBytesPerRecord*budgetRecords + reportByteSlack); allocs > reportAllocBudget || bytes > limit {
		t.Errorf("Report of %d records: %.1f allocs and %.0f B, budget %d and %.0f B",
			budgetRecords, allocs, bytes, reportAllocBudget, limit)
	}
	if sink.Report(cfg).Completed != rp.Completed {
		t.Fatal("clone and original disagree")
	}
}
