package workload

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
)

// The Standard Workload Format (SWF, Feitelson's Parallel Workloads
// Archive) is one record per line with 18 whitespace-separated integer
// fields; comment lines begin with ';'. Field indices (1-based) used
// here:
//
//	 1 job number          2 submit time (s)     3 wait time (s)
//	 4 run time (s)        5 allocated procs     6 avg cpu time
//	 7 used memory (KB/proc)
//	 8 requested procs     9 requested time     10 requested memory (KB/proc)
//	11 status             12 user id            13 group id
//	14 executable         15 queue              16 partition
//	17 preceding job      18 think time
//
// On import, "processors" are interpreted as nodes when nodeCores == 0,
// or converted to nodes by dividing by nodeCores (ceiling) otherwise —
// the archive mixes both conventions, so the caller chooses.

// SWFReadOptions controls trace import.
type SWFReadOptions struct {
	// NodeCores > 0 converts SWF "processors" to nodes by ceiling
	// division; 0 treats processors as nodes directly.
	NodeCores int
	// DefaultMemPerNode (MiB) is assigned to jobs whose memory fields
	// are absent (-1), which is the common case in the archive.
	DefaultMemPerNode int64
	// MaxJobs truncates the import; 0 means no limit.
	MaxJobs int
}

// SWFDecoder decodes an SWF trace one job at a time with O(1) memory:
// the lazy half of ReadSWF, and what internal/source.SWF builds on for
// bounded-memory replay of archive-scale traces. Jobs are yielded in
// file order; unlike ReadSWF it cannot sort, so streaming consumers
// must either require a submit-sorted trace (the archive convention)
// or tolerate disorder themselves. Not safe for concurrent use.
type SWFDecoder struct {
	sc      *bufio.Scanner
	opt     SWFReadOptions
	offset  int64 // reader bytes consumed; a record boundary between Next calls
	lineNo  int
	skipped int
	emitted int
	err     error
	done    bool
	v       [18]int64 // per-line field scratch, reused across calls
	jobs    []Job     // the chunk Next hands jobs out from
}

// swfJobChunk is the number of jobs in one decoder chunk, about 4.5 KiB.
const swfJobChunk = 64

// NewSWFDecoder returns a decoder reading from r.
func NewSWFDecoder(r io.Reader, opt SWFReadOptions) *SWFDecoder {
	d := &SWFDecoder{opt: opt}
	d.initScanner(r)
	return d
}

// initScanner builds the line scanner with a split function that
// accounts every consumed byte, so Offset is exact at each record
// boundary (bufio.ScanLines returns a zero advance while it waits for
// more data, so each byte is counted exactly once).
func (d *SWFDecoder) initScanner(r io.Reader) {
	d.sc = bufio.NewScanner(r)
	d.sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	d.sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		advance, token, err := bufio.ScanLines(data, atEOF)
		d.offset += int64(advance)
		return advance, token, err
	})
}

// Offset returns the byte offset of the decoder's position in the
// underlying reader: the start of the first unconsumed line. Between
// Next calls it is a record boundary, so a seekable reader repositioned
// here (with the rest of the decoder state, see State) continues the
// identical job sequence — the cursor behind file-backed source forking
// and durable checkpoints.
func (d *SWFDecoder) Offset() int64 { return d.offset }

// SWFDecoderState is the portable cursor of a decoder between Next
// calls: reposition a reader over the same bytes to Offset and rebuild
// with NewSWFDecoderAt to continue the identical job sequence.
type SWFDecoderState struct {
	Opt     SWFReadOptions `json:"opt"`
	Offset  int64          `json:"offset"`
	LineNo  int            `json:"lineNo"`
	Skipped int            `json:"skipped,omitempty"`
	Emitted int            `json:"emitted"`
	Done    bool           `json:"done,omitempty"`
}

// State captures the decoder's cursor. A decoder that has failed has no
// meaningful resume point and returns its error instead.
func (d *SWFDecoder) State() (SWFDecoderState, error) {
	if d.err != nil {
		return SWFDecoderState{}, fmt.Errorf("workload: swf decoder failed, no resumable cursor: %w", d.err)
	}
	return SWFDecoderState{
		Opt: d.opt, Offset: d.offset,
		LineNo: d.lineNo, Skipped: d.skipped, Emitted: d.emitted,
		Done: d.done,
	}, nil
}

// NewSWFDecoderAt rebuilds a decoder at a captured cursor. The caller
// must have positioned r at st.Offset of the same byte stream the
// cursor was captured from (e.g. os.File.Seek on a re-opened trace).
func NewSWFDecoderAt(r io.Reader, st SWFDecoderState) *SWFDecoder {
	d := &SWFDecoder{
		opt:     st.Opt,
		offset:  st.Offset,
		lineNo:  st.LineNo,
		skipped: st.Skipped,
		emitted: st.Emitted,
		done:    st.Done,
	}
	d.initScanner(r)
	return d
}

// Next returns the next usable job, or (nil, false) at end of trace, on
// the first malformed line, or once opt.MaxJobs jobs have been yielded.
// Check Err after the stream ends to distinguish the cases. Each job is
// its own memory, which the caller owns: jobs are carved from a chunk
// of swfJobChunk that the decoder only ever appends to and replaces
// when spent, never reuses, so a chunk lives as long as the
// longest-kept job carved from it.
func (d *SWFDecoder) Next() (*Job, bool) {
	if d.done || (d.opt.MaxJobs > 0 && d.emitted >= d.opt.MaxJobs) {
		return nil, false
	}
	for d.sc.Scan() {
		d.lineNo++
		line := bytes.TrimSpace(d.sc.Bytes())
		if len(line) == 0 || line[0] == ';' {
			continue
		}
		n, badField, err := parseSWFLine(line, d.v[:])
		if err != nil {
			d.fail(fmt.Errorf("workload: swf line %d field %d: %v", d.lineNo, badField+1, err))
			return nil, false
		}
		if n < 18 {
			d.fail(fmt.Errorf("workload: swf line %d: %d fields, want 18", d.lineNo, n))
			return nil, false
		}
		j, ok := jobFromSWF(d.v[:], d.opt)
		if !ok {
			d.skipped++
			continue
		}
		d.emitted++
		if len(d.jobs) == cap(d.jobs) {
			d.jobs = make([]Job, 0, swfJobChunk)
		}
		d.jobs = append(d.jobs, j)
		return &d.jobs[len(d.jobs)-1], true
	}
	if err := d.sc.Err(); err != nil {
		d.fail(fmt.Errorf("workload: reading swf: %w", err))
		return nil, false
	}
	d.done = true
	return nil, false
}

func (d *SWFDecoder) fail(err error) {
	d.err = err
	d.done = true
}

// parseSWFLine splits a record line on ASCII whitespace and parses up to
// len(v) base-10 integer fields into v, allocation-free — the decoder's
// per-line cost used to be dominated by the string conversion and
// strings.Fields of the scanned bytes. It returns the number of fields
// parsed; on a malformed field it returns its index and the error.
func parseSWFLine(line []byte, v []int64) (n, badField int, err error) {
	i := 0
	for n < len(v) {
		for i < len(line) && isSWFSpace(line[i]) {
			i++
		}
		if i >= len(line) {
			return n, 0, nil
		}
		start := i
		for i < len(line) && !isSWFSpace(line[i]) {
			i++
		}
		x, perr := parseInt64(line[start:i])
		if perr != nil {
			return n, n, perr
		}
		v[n] = x
		n++
	}
	// More fields than v holds: the extras are ignored, matching the
	// historical behavior of reading exactly the first 18 fields.
	return n, 0, nil
}

func isSWFSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\v' || c == '\f' || c == '\r'
}

// parseInt64 is strconv.ParseInt(string(b), 10, 64) without the string
// conversion (and without base-prefix or underscore forms, which SWF
// does not use).
func parseInt64(b []byte) (int64, error) {
	s := b
	neg := false
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		neg = s[0] == '-'
		s = s[1:]
	}
	if len(s) == 0 {
		return 0, fmt.Errorf("invalid integer %q", b)
	}
	var x uint64
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("invalid integer %q", b)
		}
		d := uint64(c - '0')
		if x > (math.MaxUint64-d)/10 {
			return 0, fmt.Errorf("integer %q out of range", b)
		}
		x = x*10 + d
	}
	if neg {
		if x > uint64(math.MaxInt64)+1 {
			return 0, fmt.Errorf("integer %q out of range", b)
		}
		return -int64(x), nil
	}
	if x > math.MaxInt64 {
		return 0, fmt.Errorf("integer %q out of range", b)
	}
	return int64(x), nil
}

// Skipped returns how many unusable records were dropped so far.
func (d *SWFDecoder) Skipped() int { return d.skipped }

// Err returns the first decode error, or nil.
func (d *SWFDecoder) Err() error { return d.err }

// ReadSWF parses an SWF trace. Jobs with unusable records (zero size,
// zero runtime, negative submit) are skipped rather than failing the
// whole trace, matching common simulator practice; a count of skipped
// lines is returned.
func ReadSWF(r io.Reader, opt SWFReadOptions) (*Workload, int, error) {
	d := NewSWFDecoder(r, opt)
	w := &Workload{Name: "swf"}
	for {
		j, ok := d.Next()
		if !ok {
			break
		}
		w.Jobs = append(w.Jobs, j)
	}
	if err := d.Err(); err != nil {
		return nil, d.Skipped(), err
	}
	w.Sort()
	return w, d.Skipped(), nil
}

// jobFromSWF builds the job of one parsed record, or reports false for
// an unusable record (zero size, zero runtime, negative submit).
func jobFromSWF(v []int64, opt SWFReadOptions) (Job, bool) {
	procs := v[4]
	if procs <= 0 {
		procs = v[7] // fall back to requested processors
	}
	runtime := v[3]
	estimate := v[8]
	if estimate <= 0 {
		estimate = runtime // archive convention when request is absent
	}
	if v[0] <= 0 || v[1] < 0 || procs <= 0 || runtime <= 0 || estimate <= 0 {
		return Job{}, false
	}
	nodes := int(procs)
	coresPerNode := 0
	if opt.NodeCores > 0 {
		nodes = int((procs + int64(opt.NodeCores) - 1) / int64(opt.NodeCores))
		coresPerNode = opt.NodeCores
	}
	// SWF memory is KB per processor; convert to MiB per node.
	memKBPerProc := v[9]
	if memKBPerProc <= 0 {
		memKBPerProc = v[6]
	}
	memPerNode := opt.DefaultMemPerNode
	if memKBPerProc > 0 {
		perProcMiB := memKBPerProc / 1024
		if perProcMiB == 0 {
			perProcMiB = 1
		}
		procsPerNode := int64(1)
		if opt.NodeCores > 0 {
			procsPerNode = int64(opt.NodeCores)
		}
		memPerNode = perProcMiB * procsPerNode
	}
	if runtime > estimate {
		// Keep killed-at-limit jobs truthful: the archive logs actual
		// runtime even past the request on some systems.
		estimate = runtime
	}
	return Job{
		ID:           int(v[0]),
		User:         int(v[11]),
		Group:        int(v[12]),
		Submit:       v[1],
		Nodes:        nodes,
		CoresPerNode: coresPerNode,
		MemPerNode:   memPerNode,
		Estimate:     estimate,
		BaseRuntime:  runtime,
	}, true
}

// SWFWriter serialises jobs to SWF one at a time: the streaming half of
// WriteSWF, used by tracegen's flat-memory generation path. Create with
// NewSWFWriter, optionally emit Comment lines, then WriteJob per job and
// Flush once at the end.
type SWFWriter struct {
	bw   *bufio.Writer
	line []byte // WriteJob's line buffer, reused across jobs
	err  error
}

// NewSWFWriter returns a writer encoding to w.
func NewSWFWriter(w io.Writer) *SWFWriter {
	return &SWFWriter{bw: bufio.NewWriter(w)}
}

// Comment emits one ';'-prefixed header line (readers skip it).
func (sw *SWFWriter) Comment(text string) {
	if sw.err != nil {
		return
	}
	_, err := fmt.Fprintf(sw.bw, "; %s\n", text)
	sw.setErr(err)
}

// WriteJob encodes one job record. Unknown fields are written as -1 per
// the format convention; memory goes to field 10 in KB per processor
// (processor == node when CoresPerNode is 0). After the first error,
// further writes are no-ops and Flush reports it.
func (sw *SWFWriter) WriteJob(j *Job) error {
	if sw.err != nil {
		return sw.err
	}
	procs := j.Nodes
	memKBPerProc := j.MemPerNode * 1024
	if j.CoresPerNode > 0 {
		procs = j.Nodes * j.CoresPerNode
		memKBPerProc = j.MemPerNode * 1024 / int64(j.CoresPerNode)
	}
	// Fields 1–18: id, submit, wait, run time, procs, cpu, used memory,
	// requested procs, requested time, requested memory, status, user,
	// group, then five unknowns.
	b := strconv.AppendInt(sw.line[:0], int64(j.ID), 10)
	b = strconv.AppendInt(append(b, ' '), j.Submit, 10)
	b = strconv.AppendInt(append(b, " -1 "...), j.BaseRuntime, 10)
	b = strconv.AppendInt(append(b, ' '), int64(procs), 10)
	b = strconv.AppendInt(append(b, " -1 -1 "...), int64(procs), 10)
	b = strconv.AppendInt(append(b, ' '), j.Estimate, 10)
	b = strconv.AppendInt(append(b, ' '), memKBPerProc, 10)
	b = strconv.AppendInt(append(b, " 1 "...), int64(j.User), 10)
	b = strconv.AppendInt(append(b, ' '), int64(j.Group), 10)
	sw.line = append(b, " -1 -1 -1 -1 -1\n"...)
	_, err := sw.bw.Write(sw.line)
	sw.setErr(err)
	return sw.err
}

// WriteAll drains a lazy producer into the writer — one job in flight
// at a time — and flushes: the shared encode loop of tracegen -n, the
// replay benchmarks and the streaming example. next is any pull
// function in the JobStream shape (e.g. a source's or stream's Next
// method value).
func (sw *SWFWriter) WriteAll(next func() (*Job, bool)) error {
	for {
		j, ok := next()
		if !ok {
			break
		}
		if err := sw.WriteJob(j); err != nil {
			return err
		}
	}
	return sw.Flush()
}

// Flush writes buffered output and returns the first error seen.
func (sw *SWFWriter) Flush() error {
	if sw.err != nil {
		return sw.err
	}
	sw.setErr(sw.bw.Flush())
	return sw.err
}

func (sw *SWFWriter) setErr(err error) {
	if sw.err == nil && err != nil {
		sw.err = fmt.Errorf("workload: writing swf: %w", err)
	}
}

// WriteSWF serialises the workload in SWF. Unknown fields are written as
// -1 per the format convention. Memory is written to field 10 in KB per
// processor (processor == node when CoresPerNode is 0).
func WriteSWF(w io.Writer, wl *Workload) error {
	sw := NewSWFWriter(w)
	sw.Comment(fmt.Sprintf("SWF trace %q, %d jobs, generated by dismem", wl.Name, len(wl.Jobs)))
	for _, j := range wl.Jobs {
		if err := sw.WriteJob(j); err != nil {
			return err
		}
	}
	return sw.Flush()
}
