package sweep

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dismem"
)

// digestFile pins every Table 2 and Table 3 run at 2,000 jobs x 2
// seeds: one line per (table, cell, seed) holding the sha256 of the
// run's JSONL record stream and its DES event count.
const digestFile = "headline_digests_2000x2.tsv"

// headlineDigests runs every Table 2 and Table 3 cell for each seed and
// returns one tab-separated line per run: table, cell label, seed
// (1-based, as the workload generator numbers it), record digest and
// event count.
func headlineDigests(t *testing.T, o Options) []string {
	t.Helper()
	var lines []string
	for _, tb := range []struct {
		id   string
		rows []row
	}{{"table2", table2Rows()}, {"table3", table3Rows()}} {
		for _, r := range tb.rows {
			mc := r.cell.machine()
			for s := 0; s < o.Seeds; s++ {
				opts, err := r.cell.seedOptions(o, mc, s)
				if err != nil {
					t.Fatal(err)
				}
				h := sha256.New()
				opts.RecordSink = dismem.NewJSONLSink(h)
				res, err := dismem.Simulate(opts)
				if err != nil {
					t.Fatalf("%s %q seed %d: %v", tb.id, r.label, s+1, err)
				}
				lines = append(lines, fmt.Sprintf("%s\t%s\t%d\t%x\t%d", tb.id, r.label, s+1, h.Sum(nil), res.Events))
			}
		}
	}
	return lines
}

// TestHeadlineTableRecordDigests requires every headline-table run to
// produce exactly its pinned record stream and event count. The CSV
// goldens in the repository root hold seed means rounded for print, so
// a handful of jobs starting a few minutes apart can leave them
// unchanged; a per-job digest cannot.
func TestHeadlineTableRecordDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("headline tables at 2,000 jobs x 2 seeds in -short mode")
	}
	want, err := os.ReadFile(filepath.Join("testdata", digestFile))
	if err != nil {
		t.Fatal(err)
	}
	got := headlineDigests(t, Options{Jobs: 2000, Seeds: 2}.withDefaults())
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("%d runs, golden has %d lines", len(got), len(wantLines))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("run %d differs from its golden:\n  want %s\n  got  %s", i+1, wantLines[i], got[i])
		}
	}
}
