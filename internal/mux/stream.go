package mux

// Streaming mode: a shared scan over a live, incrementally arriving
// document, with subscriptions attached and detached mid-stream.
//
// The batch Run owns its scan loop: plans are registered up front, the
// document is read to the end, results come back in one slice. A stream
// inverts all three. The caller owns the byte feed (sax.StartChunked
// pushes chunks as they arrive), subscriptions may join while the scan
// is in flight, and each query's output must reach its subscriber as
// matching subtrees complete, not at end of document. Streaming mode
// therefore splits Run into an explicit lifecycle — BeginStream, the
// Mux used directly as the scan's BatchHandler, EndStream — and adds
// AttachStream, a thread-safe way to enqueue a plan for activation at
// the next sync point. Run is this lifecycle closed to joins: it shares
// BeginStream's begin and EndStream's end, and differs only in pruning
// the scan, aborting once every plan failed, and accepting no joiner.
//
// Sync points. A subscription cannot start receiving events at an
// arbitrary stream position: its engine validates from the document
// production down, so it must join where the open-element context is
// reconstructible. Those positions are exactly depth ≤ 1 — before the
// root element, or between complete top-level subtrees — where the only
// context is "root open or not", replayable as a single StartElement
// (or SkipSubtree, if the subscription's signature cannot match the
// root). A mid-stream joiner therefore observes the document *suffix*:
// top-level subtrees already past are gone, exactly as a listener who
// tunes in late misses what was broadcast. Plans whose root content
// model requires the missed subtrees fail validation at EndStream;
// subscribe-before-ingest avoids that for strict models. The end of a
// stream whose root never opened is its first sync point: subscriptions
// pending there are begun and then end with the stream, exactly as
// Run's sessions do when a scan fails before its first token.
//
// Streaming routing is the batch scan's (token by token, through the
// merged path automaton), but the scan runs without scanner-level
// pruning: pruning commits at scan start to byte-skipping subtrees no
// registered plan observes, which would be wrong the moment a later
// subscriber's signature does observe them. A mid-stream joiner whose
// signature is new to the batch extends the automaton at its sync
// point: the machine is rebuilt with the new group appended (existing
// groups keep their indices and skip counters) and the live matcher is
// carried over via Matcher.Extend.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"flux/internal/autom"
	"flux/internal/engine"
)

// streamState is the extra Mux state active only in streaming mode.
type streamState struct {
	rootName   string // interned root element name, "" until seen
	rootClosed bool   // the root end tag has been routed
	onDetach   func(slot int, err error)
	groupKeys  map[string]int // signature key -> group index, for mid-stream joins

	pendMu sync.Mutex
	pend   []pendingSub
	ended  bool         // EndStream ran; no further subscriptions accepted
	npend  atomic.Int32 // len(pend), readable without the lock
}

// pendingSub is a subscription enqueued by AttachStream, awaiting
// activation on the scan goroutine.
type pendingSub struct {
	ctx  context.Context
	plan *engine.Plan
	w    io.Writer
	done func(slot int, err error)
}

// NewStreaming returns a multiplexer in streaming mode: selective
// routing, an explicit BeginStream/EndStream lifecycle instead of Run,
// and mid-stream subscription management via AttachStream. Unlike batch
// muxes it tolerates having no live sessions — a stream with zero
// subscribers is still consumed (and well-formedness checked), since a
// subscriber may yet join.
func NewStreaming() *Mux {
	return &Mux{stream: &streamState{}}
}

// OnDetach registers a callback invoked whenever a streaming slot is
// detached before EndStream — its context was canceled, its engine
// rejected the stream, or its writer failed. The hub serving the
// subscriber uses it to end that subscriber's response immediately
// instead of at end of stream. The callback runs on the goroutine
// driving the mux — the one feeding it batches, or calling EndStream —
// immediately after the slot's Result was recorded, so ResultAt(slot)
// is valid inside it.
// Must be set before BeginStream; ignored in batch mode.
func (m *Mux) OnDetach(fn func(slot int, err error)) {
	if m.stream != nil {
		m.stream.onDetach = fn
	}
}

// errNotStreaming reports streaming lifecycle calls on a batch Mux.
var errNotStreaming = errors.New("mux: not a streaming mux (use NewStreaming)")

// ErrRootClosed rejects a subscription that arrives after the stream's
// root element has closed: no further events can ever reach it.
var ErrRootClosed = errors.New("mux: stream root element already closed")

// ErrStreamEnded rejects a subscription still pending when the stream
// ends.
var ErrStreamEnded = errors.New("mux: stream ended before subscription activated")

// BeginStream opens the stream: plans registered so far (the standing
// subscriptions) are grouped and their sessions begun. The caller then
// feeds the Mux as a sax.BatchHandler — typically via sax.StartChunked
// — and finally calls EndStream. BeginStream replaces Run and may be
// called once.
func (m *Mux) BeginStream() error {
	if m.stream == nil {
		return errNotStreaming
	}
	return m.begin("BeginStream")
}

// AttachStream enqueues a plan as a new subscription on a live stream.
// Safe to call from any goroutine, before or during the scan. The
// subscription activates on the scan goroutine at the next sync point
// (stream position of depth ≤ 1); done is called there with the slot
// index assigned, or with a negative slot and the reason when the
// subscription can no longer be served (context already done, root
// element closed, stream over). A subscription activated mid-stream
// observes only the document suffix from its sync point on. Attaching
// after EndStream fails immediately with ErrStreamEnded (done is not
// called), so a subscription racing the end of the stream is always
// either activated or rejected, never silently lost.
func (m *Mux) AttachStream(ctx context.Context, plan *engine.Plan, w io.Writer, done func(slot int, err error)) error {
	if m.stream == nil {
		return errNotStreaming
	}
	if done == nil {
		done = func(int, error) {}
	}
	st := m.stream
	st.pendMu.Lock()
	if st.ended {
		st.pendMu.Unlock()
		return ErrStreamEnded
	}
	st.pend = append(st.pend, pendingSub{ctx: ctx, plan: plan, w: w, done: done})
	st.npend.Add(1)
	st.pendMu.Unlock()
	return nil
}

// takePending snapshots and clears the pending-subscription queue. With
// end set (EndStream, once) it also closes the queue: later AttachStream
// calls fail with ErrStreamEnded.
func (st *streamState) takePending(end bool) []pendingSub {
	st.pendMu.Lock()
	st.ended = st.ended || end
	pend := st.pend
	st.pend = nil
	st.npend.Add(-int32(len(pend)))
	st.pendMu.Unlock()
	return pend
}

// activatePending admits every queued subscription at the current sync
// point. Runs on the scan goroutine with m.depth ≤ 1.
func (m *Mux) activatePending() {
	st := m.stream
	for _, p := range st.takePending(false) {
		if p.ctx != nil && p.ctx.Err() != nil {
			p.done(-1, p.ctx.Err())
			continue
		}
		if st.rootClosed {
			p.done(-1, ErrRootClosed)
			continue
		}
		slot := m.AddContext(p.ctx, p.plan, p.w)
		gi, fresh := m.streamGroup(p.plan)
		m.slotGroup = append(m.slotGroup, gi)
		g := m.groups[gi]
		g.members = append(g.members, slot)
		if fresh {
			// A signature the batch has not seen: rebuild the merged
			// automaton with the new group appended (existing groups keep
			// their indices) and extend the live matcher in place — at a
			// sync point the only context the new group needs is the root
			// transition.
			m.machine = autom.Build(m.machineGroups())
			m.matcher.Extend(m.machine, st.rootName)
		}
		// Begin, then replay the open-element context: if the root is
		// open, the new session sees its start tag now (or skips the whole
		// remainder of the root, if its group's automaton state is
		// inactive), aligning it with the rest of its group.
		s := m.sessions[slot]
		err := s.Begin()
		if err == nil && m.depth == 1 {
			if m.matcher.Active(gi) {
				err = s.StartElement(st.rootName)
			} else {
				err = s.SkipSubtree(st.rootName)
			}
		}
		if err != nil {
			m.fail(slot, err)
		}
		p.done(slot, err)
	}
}

// ResultAt returns the slot's Result. It is meaningful only once the
// slot is detached — from inside an OnDetach callback (which runs on the
// goroutine that recorded the Result, immediately after) or after
// EndStream; a live slot's Result is still being accumulated.
func (m *Mux) ResultAt(slot int) Result { return m.results[slot] }

// streamGroup finds or creates the routing group for plan, returning
// its index and whether it was created now (a fresh group still needs
// the automaton rebuilt and the matcher aligned to the stream position).
func (m *Mux) streamGroup(plan *engine.Plan) (int, bool) {
	key := GroupKey(plan)
	if gi, ok := m.stream.groupKeys[key]; ok {
		return gi, false
	}
	gi := len(m.groups)
	m.stream.groupKeys[key] = gi
	m.groups = append(m.groups, &fanGroup{key: key, sig: plan.Signature()})
	return gi, true
}

// flushLive pushes each live session through to its subscriber — the
// per-batch delivery point that makes results visible before end of
// stream. A flush failure (the subscriber's writer died) detaches that
// slot like any other per-query failure.
func (m *Mux) flushLive() {
	for i, s := range m.sessions {
		if !m.live[i] {
			continue
		}
		if err := s.Flush(); err != nil {
			m.fail(i, err)
		}
	}
}

// EndStream closes the stream and returns one Result per slot in
// attachment order. A nil streamErr means the feed ended cleanly: every
// live session runs its end-of-document finalization (Session.Finish).
// A non-nil streamErr — the scan failed, the producer died — is
// recorded on every live slot instead, like Run's stream-level failure
// path. If the root never opened, the end is the stream's first sync
// point: subscriptions pending there activate first, so they are begun
// and then finish or fail with the stream like every standing slot. Any
// other subscription still pending is rejected with ErrStreamEnded,
// wrapping streamErr when the stream failed.
func (m *Mux) EndStream(streamErr error) []Result {
	if m.stream == nil {
		return nil
	}
	if m.stream.rootName == "" {
		m.activatePending()
	}
	rejected := ErrStreamEnded
	if streamErr != nil {
		rejected = fmt.Errorf("%w: %w", ErrStreamEnded, streamErr)
	}
	for _, p := range m.stream.takePending(true) {
		p.done(-1, rejected)
	}
	m.end(streamErr)
	return m.results
}
