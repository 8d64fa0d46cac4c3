package dismem

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"

	"dismem/internal/durable"
	"dismem/internal/sim"
	"dismem/internal/source"
)

// This file makes checkpoints durable: SaveCheckpoint serializes a
// Checkpoint (fork.go) into a self-validating envelope and
// LoadCheckpoint rebuilds one in another process. The envelope is
//
//	magic "DMCKPT1\n"                          8 bytes
//	format version                             4 bytes, big endian
//	schema fingerprint                        32 bytes
//	payload length                             8 bytes, big endian
//	payload                                   JSON, length bytes
//	payload SHA-256 digest                    32 bytes
//
// and every way a file can lie is a distinct pointed error, never a
// silently wrong simulation: wrong magic, unknown version, a schema
// fingerprint from an incompatible build, a truncated payload, a
// digest mismatch from any bit flip, and structurally invalid state
// behind a valid digest. The digest is verified before the payload is
// decoded.
//
// What cannot be saved mirrors what cannot be forked, plus code:
// schedulers, memory models and scenarios persist as their spec
// strings (Options.Policy / Options.Model / Scenario.String), so runs
// built from Options.SchedulerImpl or Options.ModelImpl have no
// serialized form, and sources must be durable (source.Durable) — a
// materialised workload, the built-in generators, or a file-backed SWF
// trace (SWFFileSource), but not a bare io.Reader stream.
//
// A checkpoint restored by LoadCheckpoint feeds Fork exactly like one
// taken in-process, and the resumed future is bit-identical to the
// uninterrupted run (DESIGN.md §9).

// ckptMagic identifies a dismem checkpoint stream.
const ckptMagic = "DMCKPT1\n"

// CheckpointFormatVersion is the envelope format this build writes and
// the only one it reads. It bumps when the envelope layout or payload
// semantics change incompatibly.
const CheckpointFormatVersion = 1

// maxCheckpointPayload bounds how much a reader will buffer for one
// checkpoint, so a corrupted length field cannot trigger a multi-GiB
// allocation before the digest check gets a chance to reject it.
const maxCheckpointPayload = 1 << 31

// ckptPayload is the JSON payload of a checkpoint envelope: the
// serialized run configuration (specs, not code) plus the flattened
// engine state.
type ckptPayload struct {
	Machine         MachineConfig        `json:"machine"`
	Policy          string               `json:"policy,omitempty"`
	Model           string               `json:"model"`
	StrictKill      bool                 `json:"strictKill,omitempty"`
	CheckInvariants bool                 `json:"checkInvariants,omitempty"`
	Failures        *FailureConfig       `json:"failures,omitempty"`
	Scenario        string               `json:"scenario,omitempty"`
	SampleEvery     int64                `json:"sampleEvery,omitempty"`
	State           *sim.CheckpointState `json:"state"`
}

// ckptSchemaFingerprint digests the reflected shape of the payload, so
// a checkpoint written by a build whose state structs drifted is
// rejected up front instead of half-decoding.
var ckptSchemaFingerprint = durable.Fingerprint(reflect.TypeOf(ckptPayload{}))

// SaveCheckpoint serializes cp to w in the versioned, digest-protected
// envelope format. It fails, without writing anything, for checkpoints
// of runs that embed live code: Options.SchedulerImpl or
// Options.ModelImpl (persist the spec strings instead), or a workload
// source with no durable cursor. For crash-safe on-disk checkpoints
// use WriteCheckpointFile, which wraps this in an atomic
// write-fsync-rename.
func SaveCheckpoint(w io.Writer, cp *Checkpoint) error {
	payload, err := encodeCheckpoint(cp)
	if err != nil {
		return err
	}
	if err := writeEnvelope(w, payload); err != nil {
		return fmt.Errorf("dismem: writing checkpoint: %w", err)
	}
	return nil
}

// encodeCheckpoint flattens cp to the JSON payload bytes.
func encodeCheckpoint(cp *Checkpoint) ([]byte, error) {
	if cp == nil {
		return nil, fmt.Errorf("dismem: nil checkpoint")
	}
	o := cp.opts
	if o.SchedulerImpl != nil {
		return nil, fmt.Errorf("dismem: checkpoint of a run built with Options.SchedulerImpl has no serialized form (select the scheduler with Options.Policy so it can be rebuilt on load)")
	}
	if o.ModelImpl != nil {
		return nil, fmt.Errorf("dismem: checkpoint of a run built with Options.ModelImpl has no serialized form (select the model with Options.Model so it can be rebuilt on load)")
	}
	st, err := cp.cp.State()
	if err != nil {
		return nil, fmt.Errorf("dismem: %w", err)
	}
	scen := ""
	if o.Scenario != nil {
		scen = o.Scenario.String()
	}
	p := ckptPayload{
		Machine:         o.Machine,
		Policy:          o.Policy,
		Model:           o.Model,
		StrictKill:      o.StrictKill,
		CheckInvariants: o.CheckInvariants,
		Failures:        o.Failures,
		Scenario:        scen,
		SampleEvery:     o.SampleEvery,
		State:           st,
	}
	buf, err := json.Marshal(&p)
	if err != nil {
		return nil, fmt.Errorf("dismem: encoding checkpoint: %w", err)
	}
	return buf, nil
}

// LoadCheckpoint reads one envelope from r and rebuilds the
// checkpoint. Every defect is an error: wrong magic, a format version
// this build does not read, a schema fingerprint from an incompatible
// build, truncation anywhere, any payload corruption (SHA-256
// verified before decoding), and state that decodes but fails
// structural validation. The rebuilt checkpoint feeds Fork like one
// taken in-process.
func LoadCheckpoint(r io.Reader) (*Checkpoint, error) {
	var magic [len(ckptMagic)]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("dismem: reading checkpoint magic: %w", err)
	}
	if string(magic[:]) != ckptMagic {
		return nil, fmt.Errorf("dismem: not a dismem checkpoint (magic %q)", magic[:])
	}
	var v [4]byte
	if _, err := io.ReadFull(r, v[:]); err != nil {
		return nil, fmt.Errorf("dismem: reading checkpoint version: %w", err)
	}
	if ver := binary.BigEndian.Uint32(v[:]); ver != CheckpointFormatVersion {
		return nil, fmt.Errorf("dismem: checkpoint format version %d; this build reads version %d", ver, CheckpointFormatVersion)
	}
	var fp [sha256.Size]byte
	if _, err := io.ReadFull(r, fp[:]); err != nil {
		return nil, fmt.Errorf("dismem: reading checkpoint schema fingerprint: %w", err)
	}
	if fp != ckptSchemaFingerprint {
		return nil, fmt.Errorf("dismem: checkpoint schema fingerprint %x does not match this build's %x (written by an incompatible dismem version)",
			fp[:8], ckptSchemaFingerprint[:8])
	}
	var n [8]byte
	if _, err := io.ReadFull(r, n[:]); err != nil {
		return nil, fmt.Errorf("dismem: reading checkpoint payload length: %w", err)
	}
	length := binary.BigEndian.Uint64(n[:])
	if length > maxCheckpointPayload {
		return nil, fmt.Errorf("dismem: checkpoint payload length %d exceeds the %d-byte bound (corrupted length field?)", length, maxCheckpointPayload)
	}
	var payload bytes.Buffer
	payload.Grow(int(length))
	if _, err := io.CopyN(&payload, r, int64(length)); err != nil {
		return nil, fmt.Errorf("dismem: checkpoint payload truncated at %d of %d bytes: %w", payload.Len(), length, err)
	}
	var digest [sha256.Size]byte
	if _, err := io.ReadFull(r, digest[:]); err != nil {
		return nil, fmt.Errorf("dismem: reading checkpoint digest: %w", err)
	}
	if sum := sha256.Sum256(payload.Bytes()); sum != digest {
		return nil, fmt.Errorf("dismem: checkpoint payload digest mismatch (file corrupted)")
	}
	dec := json.NewDecoder(&payload)
	dec.DisallowUnknownFields()
	var p ckptPayload
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("dismem: decoding checkpoint payload: %w", err)
	}
	return rebuildCheckpoint(&p)
}

// rebuildCheckpoint rebuilds the run a payload describes through
// resolve and revalidates the flattened state. A payload records its
// run's resolved machine and model, so a zero machine or an empty
// model is a forgery, never a default to fill.
func rebuildCheckpoint(p *ckptPayload) (*Checkpoint, error) {
	if p.State == nil {
		return nil, fmt.Errorf("dismem: checkpoint payload has no engine state")
	}
	if p.Machine.IsZero() {
		return nil, fmt.Errorf("dismem: checkpoint machine config: zero machine")
	}
	if p.Model == "" {
		return nil, fmt.Errorf("dismem: checkpoint memory model: empty spec")
	}
	o := Options{
		Machine:         p.Machine,
		Policy:          p.Policy,
		Model:           p.Model,
		StrictKill:      p.StrictKill,
		CheckInvariants: p.CheckInvariants,
		Failures:        p.Failures,
		SampleEvery:     p.SampleEvery,
	}
	if p.Scenario != "" {
		sc, err := ParseScenario(p.Scenario)
		if err != nil {
			return nil, fmt.Errorf("dismem: checkpoint scenario: %w", err)
		}
		o.Scenario = sc
	}
	o, cfg, err := resolve(o)
	if err != nil {
		return nil, fmt.Errorf("dismem: checkpoint %w", err)
	}
	cp, err := sim.CheckpointFromState(cfg, p.State)
	if err != nil {
		return nil, fmt.Errorf("dismem: %w", err)
	}
	return &Checkpoint{cp: cp, opts: o}, nil
}

// WriteCheckpointFile saves cp to path atomically (durable.WriteFile):
// a crash at any instant leaves either the old file or the new one —
// never a torn checkpoint. The payload is encoded before the temporary
// file is created, so an encoding error cannot leave one behind.
func WriteCheckpointFile(path string, cp *Checkpoint) error {
	payload, err := encodeCheckpoint(cp)
	if err != nil {
		return err
	}
	if err := durable.WriteFile(path, func(w io.Writer) error { return writeEnvelope(w, payload) }); err != nil {
		return fmt.Errorf("dismem: writing checkpoint: %w", err)
	}
	return nil
}

// writeEnvelope frames pre-encoded payload bytes (see SaveCheckpoint
// for the layout).
func writeEnvelope(w io.Writer, payload []byte) error {
	var hdr bytes.Buffer
	hdr.WriteString(ckptMagic)
	var v [4]byte
	binary.BigEndian.PutUint32(v[:], CheckpointFormatVersion)
	hdr.Write(v[:])
	hdr.Write(ckptSchemaFingerprint[:])
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(len(payload)))
	hdr.Write(n[:])
	digest := sha256.Sum256(payload)
	for _, b := range [][]byte{hdr.Bytes(), payload, digest[:]} {
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// ReadCheckpointFile loads a checkpoint written by WriteCheckpointFile
// (or any SaveCheckpoint stream stored at path).
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dismem: reading checkpoint: %w", err)
	}
	defer f.Close()
	cp, err := LoadCheckpoint(f)
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	return cp, nil
}

// SWFFileSource streams jobs lazily from an SWF trace file by path,
// with the same O(1)-memory decoding as SWFSource. Because the source
// owns the path rather than a caller's reader, its position is a
// (path, byte offset) cursor: the source is forkable (checkpoints of
// file-backed replays work) and durable (those checkpoints can be
// saved with SaveCheckpoint and resumed in another process). The file
// is opened lazily on first pull and closed at end of trace; the
// returned source implements io.Closer for callers that abandon a
// replay mid-trace.
func SWFFileSource(path string, opt SWFReadOptions) Source {
	return source.SWFFile(path, opt)
}
