// Package runstore is the durable, queryable archive of completed
// runs: dmsweep units, dmserve baselines and dmsched runs append one
// record per completed run, and dmstore reads them back for listing,
// inspection and comparison. The layout is an fsynced index plus
// append-only JSONL segments:
//
//	<dir>/index.json        format, record-schema fingerprint, segment list
//	<dir>/seg-000001.jsonl  one {"sum": <sha256>, "run": {...}} line per run
//
// Every segment line carries the SHA-256 of its record bytes, and the
// index is replaced atomically (durable.WriteFile: temp file, fsync,
// rename — the checkpoint discipline), so the failure modes are sharp:
// a write torn by a crash loses at most the trailing line of the
// segment that session was appending to (tolerated and dropped on
// open), while interior corruption — a bad checksum, malformed JSON, a
// record written by a build with a different schema — fails Open
// loudly with the file and line rather than serving silently wrong
// history.
//
// Records carry no wall-clock fields: a run's stored form depends only
// on its configuration and outcome, so an interrupted-and-resumed
// sweep archives byte-identical records to an uninterrupted one — the
// property the CI run-store smoke diffs. The store is also dmsweep's
// resume journal: a sweep unit is done exactly when its record is
// archived.
package runstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"

	"dismem/internal/durable"
	"dismem/internal/metrics"
)

// storeFormat names the store layout. Bump on any incompatible change
// to the index or line shapes.
const storeFormat = "dmstore/1"

// recordSchema pins the Run type's wire shape (and transitively
// metrics.Report's): the first 8 bytes of its durable.Fingerprint, in
// hex. An archive written by a build with a different record layout is
// rejected instead of mis-decoded.
var recordSchema = func() string {
	fp := durable.Fingerprint(reflect.TypeOf(Run{}))
	return hex.EncodeToString(fp[:8])
}()

// Run is one archived run. ID is the record's identity (see KeyOf):
// re-appending an identical record is a no-op, and when two records
// share an ID the later append wins on read — together these make
// archiving idempotent across sweep resumes. No field may hold
// wall-clock state.
type Run struct {
	ID   string `json:"id"`
	Kind string `json:"kind"` // "sweep-unit", "serve-baseline", "sched", ...
	// Label is a human-readable annotation, not part of identity.
	Label string `json:"label,omitempty"`
	Seed  int    `json:"seed,omitempty"`
	// Spec is the canonical configuration JSON the ID was derived from.
	Spec       json.RawMessage `json:"spec,omitempty"`
	Report     *metrics.Report `json:"report,omitempty"`
	Events     uint64          `json:"events,omitempty"`
	Stopped    bool            `json:"stopped,omitempty"`
	SeriesFile string          `json:"series_file,omitempty"`
	// JainWait and Records are the seed-0 quantities a sweep's tables
	// reduce beyond the report: per-user wait fairness and the per-job
	// records behind CDF figures. Only seed 0 of a sweep cell sets them,
	// so a resumed sweep can serve that unit without re-running it.
	JainWait float64             `json:"jain_wait,omitempty"`
	Records  []metrics.JobRecord `json:"records,omitempty"`
}

// KeyOf derives a run's identity from its configuration: the kind, the
// seed and the canonical spec JSON — never the label, report or series
// file, so the same configuration maps to the same ID whether the run
// completed cleanly, was resumed, or was re-labelled.
func KeyOf(kind string, spec []byte, seed int) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%d\n", kind, seed)
	h.Write(spec)
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// storeIndex is index.json: the segment list plus the format and
// record-schema pins that make cross-build corruption loud.
type storeIndex struct {
	Format   string   `json:"format"`
	Schema   string   `json:"schema"`
	Segments []string `json:"segments"`
}

// segLine is one segment line: the record plus the checksum of its
// encoded bytes.
type segLine struct {
	Sum string          `json:"sum"`
	Run json.RawMessage `json:"run"`
}

// Store is an open run archive. One process owns the store for
// appending at a time (dmsweep's workers funnel through the harness,
// which appends under the store's lock); any number of processes may
// Open an archive read-only between writers. All methods are safe for
// concurrent use within a process.
type Store struct {
	dir string

	mu      sync.Mutex
	idx     storeIndex
	seg     *os.File // open append segment; nil until the first Append
	segName string
	order   []string        // IDs in first-append order
	byID    map[string]*Run // last append wins
}

// Open opens (or creates) the run store rooted at dir and loads every
// intact record. A torn trailing line at the end of a segment — a
// write cut by a crash — is dropped; any other defect is an error
// naming the offending file and line.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runstore: open %s: %w", dir, err)
	}
	s := &Store{dir: dir, byID: make(map[string]*Run)}
	data, err := os.ReadFile(s.indexPath())
	if errors.Is(err, os.ErrNotExist) {
		s.idx = storeIndex{Format: storeFormat, Schema: recordSchema}
		return s, nil
	}
	if err != nil {
		return nil, fmt.Errorf("runstore: reading index: %w", err)
	}
	if err := decodeStrict(data, &s.idx); err != nil {
		return nil, fmt.Errorf("runstore: index %s is corrupt: %w", s.indexPath(), err)
	}
	if s.idx.Format != storeFormat {
		return nil, fmt.Errorf("runstore: %s holds format %q, this build reads %q", s.indexPath(), s.idx.Format, storeFormat)
	}
	if s.idx.Schema != recordSchema {
		return nil, fmt.Errorf("runstore: %s was written by a build with a different record schema; refusing to misread it", dir)
	}
	for _, name := range s.idx.Segments {
		if err := s.loadSegment(name); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *Store) indexPath() string { return filepath.Join(s.dir, "index.json") }

// loadSegment reads one segment, verifying every line's checksum. Each
// segment is written by exactly one session, and any session may have
// crashed mid-append, so any segment may end in one torn line — not
// just the newest: a resumed sweep appends to a fresh segment after
// the torn one.
func (s *Store) loadSegment(name string) error {
	path := filepath.Join(s.dir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("runstore: segment %s listed in the index is unreadable: %w", name, err)
	}
	torn := len(data) > 0 && data[len(data)-1] != '\n'
	lines := bytes.Split(data, []byte("\n"))
	if !torn && len(lines) > 0 && len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	for i, line := range lines {
		if len(line) == 0 {
			return fmt.Errorf("runstore: segment %s: blank line %d", name, i+1)
		}
		var sl segLine
		err := decodeStrict(line, &sl)
		if err == nil && sl.Sum != checksum(sl.Run) {
			err = fmt.Errorf("checksum mismatch")
		}
		var run Run
		if err == nil {
			err = decodeStrict(sl.Run, &run)
		}
		if err == nil && run.ID == "" {
			err = fmt.Errorf("record has no id")
		}
		if err != nil {
			if torn && i == len(lines)-1 {
				return nil // a crash tore the trailing append; the run re-archives
			}
			return fmt.Errorf("runstore: segment %s line %d is corrupt: %w", name, i+1, err)
		}
		s.insert(run)
	}
	return nil
}

// insert merges one decoded record: last append wins, first-append
// order preserved.
func (s *Store) insert(run Run) {
	if _, ok := s.byID[run.ID]; !ok {
		s.order = append(s.order, run.ID)
	}
	r := run
	s.byID[run.ID] = &r
}

func checksum(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// decodeStrict unmarshals one JSON value, rejecting unknown fields and
// trailing garbage.
func decodeStrict(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON value")
	}
	return nil
}

// Append archives one run durably: the record line is written and
// fsynced before Append returns. Re-appending a record identical to
// the stored one is a no-op (idempotent resume); a record with the
// same ID but different content is appended and wins on read.
func (s *Store) Append(run Run) error {
	if run.ID == "" {
		return fmt.Errorf("runstore: record has no id")
	}
	raw, err := json.Marshal(run)
	if err != nil {
		return fmt.Errorf("runstore: encoding record %s: %w", run.ID, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.byID[run.ID]; ok {
		if prev, err := json.Marshal(old); err == nil && bytes.Equal(prev, raw) {
			return nil
		}
	}
	if s.seg == nil {
		if err := s.openSegmentLocked(); err != nil {
			return err
		}
	}
	line, err := json.Marshal(segLine{Sum: checksum(raw), Run: raw})
	if err != nil {
		return fmt.Errorf("runstore: encoding record %s: %w", run.ID, err)
	}
	line = append(line, '\n')
	if _, err := s.seg.Write(line); err != nil {
		return fmt.Errorf("runstore: appending to %s: %w", s.segName, err)
	}
	if err := s.seg.Sync(); err != nil {
		return fmt.Errorf("runstore: syncing %s: %w", s.segName, err)
	}
	s.insert(run)
	return nil
}

// openSegmentLocked starts this writer's segment: the file is created
// and registered in the index (durably, atomic replace) before the
// first record lands in it, so a reader never meets an unlisted
// segment with data the index cannot vouch for.
func (s *Store) openSegmentLocked() error {
	name := fmt.Sprintf("seg-%06d.jsonl", len(s.idx.Segments)+1)
	path := filepath.Join(s.dir, name)
	if _, err := os.Stat(path); err == nil {
		return fmt.Errorf("runstore: segment %s already exists but is not in the index; the store is corrupt or owned by another writer", name)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("runstore: creating segment: %w", err)
	}
	idx := s.idx
	idx.Segments = append(append([]string(nil), s.idx.Segments...), name)
	if err := s.writeIndexLocked(idx); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	s.idx, s.seg, s.segName = idx, f, name
	return nil
}

// writeIndexLocked replaces index.json atomically (durable.WriteFile).
func (s *Store) writeIndexLocked(idx storeIndex) error {
	b, err := json.MarshalIndent(idx, "", "  ")
	if err != nil {
		return fmt.Errorf("runstore: encoding index: %w", err)
	}
	b = append(b, '\n')
	err = durable.WriteFile(s.indexPath(), func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	})
	if err != nil {
		return fmt.Errorf("runstore: writing index: %w", err)
	}
	return nil
}

// Runs returns every archived record in first-append order, last
// append winning per ID.
func (s *Store) Runs() []Run {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Run, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, *s.byID[id])
	}
	return out
}

// Get returns the archived record with the given ID, or any record
// whose ID starts with it when the prefix is unambiguous — the CLI
// convenience.
func (s *Store) Get(id string) (Run, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.byID[id]; ok {
		return *r, nil
	}
	var matches []string
	for _, full := range s.order {
		if len(id) > 0 && len(id) < len(full) && full[:len(id)] == id {
			matches = append(matches, full)
		}
	}
	switch len(matches) {
	case 1:
		return *s.byID[matches[0]], nil
	case 0:
		return Run{}, fmt.Errorf("runstore: no run %q", id)
	default:
		sort.Strings(matches)
		return Run{}, fmt.Errorf("runstore: id %q is ambiguous (%d matches, e.g. %s, %s)", id, len(matches), matches[0], matches[1])
	}
}

// Len reports how many distinct runs the store holds.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.order)
}

// Close releases the append segment, if one was started. The archive
// stays on disk; Close never deletes anything.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seg == nil {
		return nil
	}
	err := s.seg.Close()
	s.seg = nil
	return err
}
