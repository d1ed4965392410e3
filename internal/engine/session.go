package engine

import (
	"io"
	"sync"

	"flux/internal/sax"
)

// Session is one execution of a compiled plan driven by an externally
// supplied SAX event stream. It decouples event delivery from the scan
// loop so that a single pass over the input can feed many queries at once
// (see internal/mux): the caller owns the scanner and fans each event to
// any number of sessions.
//
// The lifecycle is Begin, then any number of StartElement/Text/EndElement
// calls (Session implements sax.Handler), then exactly one of Finish or
// Abort. A Session is single-use and not safe for concurrent use; run
// concurrent executions of the same Plan in separate Sessions.
type Session struct {
	eng  *engine
	done bool
}

// NewSession creates a session executing plan, writing query output to w.
func NewSession(plan *Plan, w io.Writer) *Session {
	return &Session{eng: newEngine(plan, w)}
}

// errClosed reports use of a finished session.
var errClosed = &RunError{Msg: "session already finished"}

// Begin opens the synthetic document scope. It must be called once,
// before the first event.
func (s *Session) Begin() error {
	if s.done {
		return errClosed
	}
	return s.eng.begin()
}

// StartElement implements sax.Handler.
func (s *Session) StartElement(name string) error {
	if s.done {
		return errClosed
	}
	return s.eng.StartElement(name)
}

// Text implements sax.Handler; it is TextBytes on a copy of data.
func (s *Session) Text(data string) error {
	return s.TextBytes([]byte(data))
}

// EndElement implements sax.Handler.
func (s *Session) EndElement(name string) error {
	if s.done {
		return errClosed
	}
	return s.eng.EndElement(name)
}

// TextBytes delivers a character-data event as a byte slice, as every
// scan does. The engine treats data as borrowed:
// anything it must retain past the call (buffered subtrees, value
// accumulators) is copied, so the caller may reuse the backing array —
// e.g. a sax batch arena — afterwards.
func (s *Session) TextBytes(data []byte) error {
	if s.done {
		return errClosed
	}
	return s.eng.textBytes(data)
}

// HandleBatch implements sax.BatchHandler, unpacking a token batch into
// the per-event engine entry points. Driving a session from
// sax.ScanBatchedContext produces exactly the same execution as driving
// it event-by-event from sax.ScanContext, minus the per-event dispatch
// and text-string allocations. A SkipElement token — emitted by a scan
// pruned with this plan's own signature (sax.Options.Prune) — maps to
// one SkipSubtree step.
func (s *Session) HandleBatch(b *sax.Batch) error {
	if s.done {
		return errClosed
	}
	e := s.eng
	for i := range b.Tokens {
		t := &b.Tokens[i]
		var err error
		switch t.Kind {
		case sax.StartElement:
			err = e.StartElement(t.Name)
		case sax.EndElement:
			err = e.EndElement(t.Name)
		case sax.SkipElement:
			err = e.skipSubtree(t.Name)
		default:
			err = e.textBytes(t.Data)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// SkipSubtree consumes a complete element named name — start tag,
// entire content, end tag — in a single step, without delivering its
// interior events. It is the selective fan-out fast path: the caller
// (a router such as internal/mux) guarantees, from the plan's
// Signature, that nothing under the element can match the query. The
// parent content model still validates the element and punctuation
// events still fire; the element's interior is not validated. Calling
// it for a subtree the plan consumes is a routing bug and returns a
// RunError.
func (s *Session) SkipSubtree(name string) error {
	if s.done {
		return errClosed
	}
	return s.eng.skipSubtree(name)
}

// Flush pushes buffered output through to the session's writer without
// ending the stream. The engine emits results incrementally as matching
// subtrees complete, but batches them in the writer's 64 KB buffer; a
// streaming caller (a standing subscription over a live ingest) calls
// Flush at its delivery granularity so subscribers see results as they
// are produced rather than at end of document.
func (s *Session) Flush() error {
	if s.done {
		return errClosed
	}
	return s.eng.w.Flush()
}

// Finish signals end of stream: the document scope closes (running any
// remaining on-first handlers), output is flushed, and the execution
// statistics are returned. The session is dead afterwards. Finish is the
// end-of-document finalization point — for a stream-fed session it is
// the "EndStream" event, the only place document-lifetime buffers are
// released and end-of-stream handlers run.
func (s *Session) Finish() (Stats, error) {
	if s.done {
		return Stats{}, errClosed
	}
	err := s.eng.finish()
	if err == nil {
		err = s.eng.w.Flush()
	}
	return s.close(), err
}

// Abort abandons the execution without running end-of-stream handlers or
// flushing buffered output; use it when the event stream failed. It
// returns the statistics accumulated so far and is a no-op on a finished
// session.
func (s *Session) Abort() Stats {
	if s.done {
		return Stats{}
	}
	return s.close()
}

// close snapshots stats and recycles the engine.
func (s *Session) close() Stats {
	st := Stats{
		PeakBufferBytes: s.eng.peakBytes,
		OutputBytes:     s.eng.w.BytesWritten(),
		Tokens:          s.eng.tokens,
	}
	s.eng.release()
	s.eng = nil
	s.done = true
	return st
}

// enginePool recycles engine shells — the frame stack, the instance map,
// and the output writer's 64 KB buffer — across executions, so a resident
// server does not churn allocations per query.
var enginePool sync.Pool

func newEngine(plan *Plan, w io.Writer) *engine {
	e, _ := enginePool.Get().(*engine)
	if e == nil {
		e = &engine{
			w:    sax.NewWriter(nil),
			inst: make(map[string]*scopeRT),
		}
	}
	e.plan = plan
	e.w.Reset(w)
	return e
}

// release clears all per-run state (including pointers parked beyond the
// frame stack's length, which would otherwise pin buffered subtrees) and
// returns the engine to the pool.
func (e *engine) release() {
	e.plan = nil
	e.w.Reset(nil)
	frames := e.frames[:cap(e.frames)]
	for i := range frames {
		frames[i].scrub()
	}
	e.frames = e.frames[:0]
	clear(e.inst)
	clear(e.selScratch[:cap(e.selScratch)])
	e.selScratch = e.selScratch[:0]
	clear(e.lhsVals[:cap(e.lhsVals)])
	e.lhsVals = e.lhsVals[:0]
	clear(e.rhsVals[:cap(e.rhsVals)])
	e.rhsVals = e.rhsVals[:0]
	e.joins = nil
	e.curBytes, e.peakBytes, e.tokens = 0, 0, 0
	enginePool.Put(e)
}
