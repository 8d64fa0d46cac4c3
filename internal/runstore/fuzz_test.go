package runstore

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzStoreOpen feeds arbitrary segment bytes behind a valid index:
// Open must either load the segment or return an error — never panic —
// and every record it does load must carry an ID. The reader guards
// dmsweep's resume, so it is the trust boundary between a damaged
// archive and a sweep's results. The seed corpus lives in
// testdata/fuzz/FuzzStoreOpen: a valid line, a torn tail, a bad
// checksum, an unknown field and a blank line.
func FuzzStoreOpen(f *testing.F) {
	idx, err := json.Marshal(storeIndex{Format: storeFormat, Schema: recordSchema, Segments: []string{"seg-000001.jsonl"}})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, seg []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "index.json"), idx, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "seg-000001.jsonl"), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			return
		}
		defer s.Close()
		for _, r := range s.Runs() {
			if r.ID == "" {
				t.Fatalf("loaded a record without an id: %+v", r)
			}
		}
	})
}
