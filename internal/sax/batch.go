package sax

import (
	"context"
	"io"
	"strings"
	"sync"
	"sync/atomic"
)

// Token is one SAX event in batched delivery. Name is set for element
// and SkipElement events and is interned (stable across the scan). Data
// is set for text events and references the owning Batch's arena: it is
// valid only until the batch is recycled — two HandleBatch calls after
// the one that delivered it (see Batch). A consumer that retains text
// must copy it (string(tok.Data) or append) at the retention point.
type Token struct {
	// Kind is the event type: StartElement, EndElement, or Text.
	Kind Kind
	// Name is the element name for StartElement/EndElement tokens.
	Name string
	// Data is the decoded character data for Text tokens, backed by the
	// batch arena.
	Data []byte
}

// Batch is a slice of consecutive SAX events sharing one text arena.
// The scanner delivers whole batches to a BatchHandler, amortizing the
// per-event delivery overhead of the Handler interface, and carves every
// Text token's payload out of the batch arena, so scanning allocates
// nothing per character-data event.
//
// Batches are recycled through a fixed ring: the tokens and arena of a
// delivered batch remain intact while the scanner fills the other ring
// slots and are reused when the ring wraps around. Consumers that need
// data beyond that window must copy it during HandleBatch — or extend
// the window explicitly with Retain/Release, which concurrent consumers
// (a stream ingest's sub-muxes) use to keep a batch alive while other
// goroutines are still reading it.
type Batch struct {
	// Tokens are the events of this batch, in stream order.
	Tokens []Token

	arena []byte // backing store for Text token payloads

	// refs counts Retain calls not yet matched by Release. The scanner
	// waits for it to reach zero before reusing the batch's storage.
	// All Retains happen on the scanning goroutine (inside HandleBatch),
	// so once HandleBatch returns the count is monotonically decreasing:
	// waitIdle needs no ABA protection.
	refs atomic.Int32
	// idle receives one token per zero-crossing of refs; waitIdle blocks
	// on it when refs is still positive. Capacity 1 and a single waiter
	// (the scanning goroutine) make lost wakeups impossible: a
	// zero-crossing either deposits a token or finds one already there.
	idle chan struct{}
}

// Retain extends the batch's validity past the ring-recycling window:
// the scanner will not reuse the batch's tokens or arena until every
// Retain has been matched by a Release. Retain may only be called during
// HandleBatch, on the delivering goroutine; Release may be called from
// any goroutine. Unbalanced Release panics.
func (b *Batch) Retain() { b.refs.Add(1) }

// Release undoes one Retain. When the last reference is dropped the
// scanner — possibly blocked in waitIdle — is woken so it can recycle
// the batch.
func (b *Batch) Release() {
	switch n := b.refs.Add(-1); {
	case n == 0:
		select {
		case b.idle <- struct{}{}:
		default: // a wakeup token is already pending
		}
	case n < 0:
		panic("sax: Batch.Release without matching Retain")
	}
}

// waitIdle blocks until every Retain on the batch has been released.
// Called by the scanner before reusing or pooling the batch's storage.
// The loop re-checks refs after each wakeup: a stale token left over
// from an earlier cycle (deposited after a fast-path exit) causes at
// most a spurious wakeup, never a premature return.
func (b *Batch) waitIdle() {
	for b.refs.Load() != 0 {
		<-b.idle
	}
}

// BatchHandler consumes SAX events a batch at a time. It is the hot-path
// alternative to Handler: one dynamic dispatch per batch instead of one
// per event, and text payloads as arena-backed byte slices instead of
// freshly allocated strings. Returning a non-nil error aborts the scan
// and propagates the error to the caller, exactly like Handler.
type BatchHandler interface {
	// HandleBatch consumes one batch. The batch's tokens and arena remain
	// valid until its ring slot is refilled, batchRingSize-1 deliveries
	// later; retain beyond that only by copying.
	HandleBatch(b *Batch) error
}

const (
	// batchArenaSize is the target capacity of a batch's text arena. A
	// single text node larger than this grows the arena for its batch;
	// oversized arenas are dropped at recycle time instead of pooled.
	batchArenaSize = 32 << 10
	// maxBatchTokens caps the events per batch, bounding delivery latency
	// for markup-dense inputs whose arenas fill slowly.
	maxBatchTokens = 1024
	// batchRingSize is the number of batches in flight: a delivered
	// batch's tokens stay valid for batchRingSize-1 further deliveries
	// before its storage is reused.
	batchRingSize = 4
)

// arenaPool recycles batch arenas across scans.
var arenaPool = sync.Pool{
	New: func() any { return make([]byte, 0, batchArenaSize) },
}

// batchPool recycles Batch shells (token slices) across scans.
var batchPool = sync.Pool{
	New: func() any {
		return &Batch{
			Tokens: make([]Token, 0, maxBatchTokens),
			idle:   make(chan struct{}, 1),
		}
	},
}

// ScanBatched is Scan with batched event delivery: events are
// accumulated into pooled batches and handed to h one batch at a time.
// The event sequence is byte-identical to what Scan delivers to a
// Handler for the same input.
func ScanBatched(r io.Reader, h BatchHandler, opt Options) error {
	return ScanBatchedContext(context.Background(), r, h, opt)
}

// ScanBatchedString is a convenience wrapper around ScanBatched for
// in-memory documents.
func ScanBatchedString(doc string, h BatchHandler, opt Options) error {
	return ScanBatched(strings.NewReader(doc), h, opt)
}

// ScanBatchedContext is ScanBatched with cancellation, polling ctx at
// input-buffer granularity like ScanContext. Events already accumulated
// when the scan stops — on a syntax error, a read failure, or
// cancellation — are flushed to h first, so the handler always observes
// the full event prefix that precedes the failure (the property the
// batched/unbatched differential tests rely on). Arenas are returned to
// their pool exactly once, whatever path ends the scan.
func ScanBatchedContext(ctx context.Context, r io.Reader, h BatchHandler, opt Options) error {
	if ctx == nil {
		ctx = context.Background()
	}
	s := getScanner()
	s.rd = r
	s.bh = h
	s.opt = opt
	s.ctx = ctx
	if opt.Prune != nil {
		s.prune = append(s.prune[:0], opt.Prune)
	}
	err := s.run()
	if err != nil && !s.bhFailed {
		// Flush events emitted before the failure; the scan error, not a
		// late handler error, remains the result.
		_ = s.flushBatch()
	} else if err == nil {
		err = s.flushBatch()
	}
	s.releaseRing()
	s.recycle()
	return err
}

// curBatch returns the batch being filled, taking a recycled one from
// the ring (or the pools, first time around) as needed.
func (s *scanner) curBatch() *Batch {
	b := s.ring[s.ringPos]
	if b == nil {
		b = batchPool.Get().(*Batch)
		b.arena = arenaPool.Get().([]byte)
		s.ring[s.ringPos] = b
	}
	return b
}

// flushBatch delivers the current batch, if non-empty, and advances the
// ring. The delivered batch's contents stay valid until its ring slot
// comes around again.
func (s *scanner) flushBatch() error {
	b := s.ring[s.ringPos]
	if b == nil || len(b.Tokens) == 0 {
		return nil
	}
	if err := s.bh.HandleBatch(b); err != nil {
		s.bhFailed = true
		return err
	}
	s.ringPos = (s.ringPos + 1) % batchRingSize
	if next := s.ring[s.ringPos]; next != nil {
		// Reuse the slot: the validity window of its previous contents has
		// elapsed — unless a consumer retained the batch, in which case
		// block here until it is released. This is the backpressure edge:
		// a consumer that falls behind stalls the producer right here. Stale
		// token entries beyond the refilled length pin only the batch's
		// own arena and the scanner's interning table, both alive anyway,
		// so they are cleared at releaseRing, not per wrap.
		next.waitIdle()
		next.Tokens = next.Tokens[:0]
		next.arena = next.arena[:0]
	}
	return nil
}

// roomFor flushes the current batch when appending a token with need
// arena bytes would overflow it. A need larger than a whole arena is
// accommodated by growing the fresh batch's arena (dropped at recycle).
func (s *scanner) roomFor(need int) error {
	b := s.curBatch()
	if len(b.Tokens) >= maxBatchTokens || (need > 0 && len(b.Tokens) > 0 && len(b.arena)+need > cap(b.arena)) {
		return s.flushBatch()
	}
	return nil
}

// releaseRing returns every ring batch and arena to its pool, exactly
// once: slots are nilled as they are released, so a second call — or a
// release after a partial scan, canceled mid-batch — finds nothing to
// do. Oversized arenas (grown past batchArenaSize by a huge text node)
// are dropped rather than pooled.
func (s *scanner) releaseRing() {
	for i, b := range s.ring {
		if b == nil {
			continue
		}
		s.ring[i] = nil
		b.waitIdle()
		if cap(b.arena) == batchArenaSize {
			arenaPool.Put(b.arena[:0])
		}
		b.arena = nil
		clear(b.Tokens)
		b.Tokens = b.Tokens[:0]
		batchPool.Put(b)
	}
	s.ringPos = 0
	s.bhFailed = false
}
