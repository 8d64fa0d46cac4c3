package serve

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dismem/internal/config"
)

// ringDigestFile pins every ring file of the baseline of
//
//	dmserve -jobs 2000 -seed 3 -ckpt-every 7200 -ckpt-keep 0
//
// one line per file: its name and the sha256 of its bytes.
const ringDigestFile = "ring_digests_2000_seed3.tsv"

// TestRingFileDigests drives that baseline in process, with the run
// flags parsed as dmserve parses them, and requires each of its 86
// ring files to hash to the pinned digest: checkpoint bytes are part
// of the fixed point, like the record digests of the headline tables.
// A change that moves them rewrites the golden file and states the
// old and new digests.
func TestRingFileDigests(t *testing.T) {
	fs := flag.NewFlagSet("dmserve", flag.ContinueOnError)
	run := config.Register(fs)
	if err := fs.Parse([]string{"-jobs", "2000", "-seed", "3"}); err != nil {
		t.Fatal(err)
	}
	opts, err := run.Options()
	if err != nil {
		t.Fatal(err)
	}
	if opts.Workload, err = run.Workload(opts.Machine, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s, err := New(Config{Options: opts, CkptDir: dir, CkptEvery: 7200, CkptKeep: 0})
	if err != nil {
		t.Fatal(err)
	}
	driveToDone(t, s)

	want, err := os.ReadFile(filepath.Join("testdata", ringDigestFile))
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(wantLines) {
		t.Fatalf("%d ring files, golden has %d lines", len(files), len(wantLines))
	}
	for i, f := range files {
		b, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%s\t%x", f.Name(), sha256.Sum256(b)); got != wantLines[i] {
			t.Errorf("ring file %d differs from its golden:\n  want %s\n  got  %s", i+1, wantLines[i], got)
		}
	}
}
