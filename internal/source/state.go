package source

import (
	"fmt"

	"dismem/internal/workload"
)

// This file is the durable-checkpoint face of the package. A
// CursorState is the portable form of a source's position — a small
// tagged union over the concrete source kinds — and Durable is the
// capability interface a source implements to produce one. FromCursor
// rebuilds a live source from a cursor; the restored source produces
// exactly the jobs the captured one had yet to produce.
//
// Reader-backed SWFSource is deliberately not Durable: an io.Reader's
// position cannot be reconstructed in another process. Use SWFFile for
// trace replays that must survive a durable checkpoint.

// Cursor kind tags.
const (
	cursorSlice     = "slice"
	cursorGen       = "gen"
	cursorLublin    = "lublin"
	cursorSWFFile   = "swf-file"
	cursorModulated = "modulated"
)

// CursorState is the portable serialized position of a source. Kind
// selects which of the payload fields apply.
type CursorState struct {
	Kind string `json:"kind"`

	// Jobs is the remaining job suffix of a slice source. Serializing a
	// slice cursor costs O(remaining jobs); archive-scale replays should
	// stream from a file instead.
	Jobs []*workload.Job `json:"jobs,omitempty"`

	// Gen/Lublin carry the generator stream cursor; Produced, MaxJobs,
	// Horizon and Done carry the adapter caps around it.
	Gen      *workload.GenStreamState    `json:"gen,omitempty"`
	Lublin   *workload.LublinStreamState `json:"lublin,omitempty"`
	Produced int                         `json:"produced,omitempty"`
	MaxJobs  int                         `json:"maxJobs,omitempty"`
	Horizon  int64                       `json:"horizon,omitempty"`
	Done     bool                        `json:"done,omitempty"`

	// Path and Dec locate a file-backed SWF source's position; Last is
	// its sorted-submit watermark. The path is stored as given, so a
	// checkpoint restored in another working directory needs either an
	// absolute path or the same layout.
	Path string                    `json:"path,omitempty"`
	Dec  *workload.SWFDecoderState `json:"dec,omitempty"`
	Last int64                     `json:"last,omitempty"`

	// Next is the buffered one-ahead job of the gen, swf-file and
	// modulated kinds.
	Next *workload.Job `json:"next,omitempty"`

	// Inner, Prev and T are the modulated wrapper's warp state around
	// its inner source's cursor.
	Inner *CursorState `json:"inner,omitempty"`
	Prev  int64        `json:"prev,omitempty"`
	T     float64      `json:"t,omitempty"`
}

// Durable is implemented by sources whose cursor can be serialized for
// a durable checkpoint. Cursor returns the source's current position;
// it fails when the source (or an inner layer) has no serialized form
// — a custom JobStream, a reader-backed SWF stream, a failed stream.
type Durable interface {
	Source
	Cursor() (*CursorState, error)
}

// Cursor implements Durable: the remaining suffix of the slice.
func (s *SliceSource) Cursor() (*CursorState, error) {
	return &CursorState{Kind: cursorSlice, Jobs: s.jobs[s.i:]}, nil
}

// Cursor implements Durable for sources over the two workload generator
// streams. A custom JobStream has no serialized form, so the source
// errors here.
func (g *GenSource) Cursor() (*CursorState, error) {
	st := &CursorState{
		Kind: cursorGen, Produced: g.produced,
		MaxJobs: g.maxJobs, Horizon: g.horizon,
		Next: g.next, Done: g.done,
	}
	switch s := g.stream.(type) {
	case *workload.GenStream:
		gen, err := s.State()
		if err != nil {
			return nil, err
		}
		st.Gen = gen
	case *workload.LublinStream:
		lub, err := s.State()
		if err != nil {
			return nil, err
		}
		st.Kind, st.Lublin = cursorLublin, lub
	default:
		return nil, fmt.Errorf("source: job stream %T has no serialized cursor (durable checkpoints support the workload generator streams)", g.stream)
	}
	return st, nil
}

// Cursor implements Durable: the trace path plus the decoder's byte
// offset. A source whose stream failed has no resumable position.
func (s *SWFFileSource) Cursor() (*CursorState, error) {
	if s.err != nil {
		return nil, fmt.Errorf("source: swf file source failed, no resumable cursor: %w", s.err)
	}
	dec, err := s.state()
	if err != nil {
		return nil, err
	}
	if s.opened && s.dec == nil {
		dec.Done = true
	}
	return &CursorState{Kind: cursorSWFFile, Path: s.path, Dec: &dec, Last: s.last, Next: s.next}, nil
}

// Cursor implements Durable when the inner source does.
func (m *modulated) Cursor() (*CursorState, error) {
	d, ok := m.inner.(Durable)
	if !ok {
		return nil, fmt.Errorf("source: modulated inner source %T has no serialized cursor", m.inner)
	}
	inner, err := d.Cursor()
	if err != nil {
		return nil, err
	}
	return &CursorState{Kind: cursorModulated, Inner: inner, Prev: m.prev, T: m.t, Next: m.next}, nil
}

// FromCursor rebuilds a live source from a cursor. rate is the arrival
// modulation function for a modulated cursor (the same scenario rate
// the original run was wrapped with); it must be non-nil exactly when
// the cursor's outermost kind is modulated.
func FromCursor(st *CursorState, rate func(t float64) float64) (Source, error) {
	if st == nil {
		return nil, fmt.Errorf("source: nil cursor")
	}
	if st.Kind != cursorModulated && rate != nil {
		return nil, fmt.Errorf("source: modulating scenario with a non-modulated %q source cursor", st.Kind)
	}
	switch st.Kind {
	case cursorSlice:
		return FromJobs(st.Jobs), nil
	case cursorGen, cursorLublin:
		var stream JobStream
		switch {
		case st.Kind == cursorGen && st.Gen != nil && st.Lublin == nil:
			s, err := workload.GenStreamFromState(st.Gen)
			if err != nil {
				return nil, err
			}
			stream = s
		case st.Kind == cursorLublin && st.Lublin != nil && st.Gen == nil:
			s, err := workload.LublinStreamFromState(st.Lublin)
			if err != nil {
				return nil, err
			}
			stream = s
		default:
			return nil, fmt.Errorf("source: %q cursor carries the wrong generator state", st.Kind)
		}
		if st.Produced < 0 || (st.MaxJobs > 0 && st.Produced > st.MaxJobs) {
			return nil, fmt.Errorf("source: generator cursor produced=%d outside [0, %d]", st.Produced, st.MaxJobs)
		}
		return &GenSource{
			stream: stream, maxJobs: st.MaxJobs, horizon: st.Horizon,
			produced: st.Produced, next: st.Next, done: st.Done,
		}, nil
	case cursorSWFFile:
		if st.Dec == nil {
			return nil, fmt.Errorf("source: swf-file cursor has no decoder state")
		}
		if st.Path == "" {
			return nil, fmt.Errorf("source: swf-file cursor has no path")
		}
		return &SWFFileSource{path: st.Path, cursor: *st.Dec, next: st.Next, last: st.Last}, nil
	case cursorModulated:
		if rate == nil {
			return nil, fmt.Errorf("source: modulated cursor needs the scenario rate function to restore")
		}
		inner, err := FromCursor(st.Inner, nil)
		if err != nil {
			return nil, err
		}
		return &modulated{inner: inner, rate: rate, prev: st.Prev, t: st.T, next: st.Next}, nil
	default:
		return nil, fmt.Errorf("source: unknown cursor kind %q", st.Kind)
	}
}
