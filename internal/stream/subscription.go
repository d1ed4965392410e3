package stream

import (
	"context"
	"io"
	"sync"
	"time"

	"flux"
	"flux/internal/engine"
)

// Subscription is one standing query over a document stream. Its
// results flow engine → ring buffer → drain goroutine → the writer the
// subscriber gave Subscribe. The ring absorbs a slow writer for up to
// its size (Options.SubscriberBuffer, 64 KB by default); once it is
// full the shared scan waits for this writer, and so do the ingest and
// every sibling subscription. A writer that fails ends that wait: its
// error detaches this subscription alone. Over HTTP the writer fails
// after a bounded stall (the serving tier's write deadline), so no
// client that stops reading holds a stream for longer than that.
//
// A subscription ends when its stream ends (Close or Abort on the
// ingest), its context is canceled, its writer fails, or the hub
// closes. Done closes after the final stats are recorded AND every
// drained byte has reached the writer, so a caller that waits on Done
// may then read Stats and Err without racing and knows the output is
// complete.
type Subscription struct {
	hub     *Hub
	doc     flux.DocInfo // the version its observed peak is recorded against
	query   *flux.Query
	ctx     context.Context
	w       io.Writer
	ring    *ring
	release func()
	start   time.Time

	mu    sync.Mutex
	stats SubStats
	err   error
	// stopWatch unregisters the context watch (context.AfterFunc) that
	// finishes the subscription when its context is canceled — also
	// while it is parked waiting for an ingest, or attached to an idle
	// stream, where no event batch would ever observe the cancellation.
	// The mux-side detach (at the next batch, if any) is then a no-op on
	// an already-finished subscription. Guarded by mu: the watch may
	// fire before Subscribe has stored it.
	stopWatch func() bool

	finishOnce sync.Once
	statsDone  chan struct{} // closed by finish, after stats are final
	done       chan struct{} // closed by the drain goroutine, after statsDone
}

// SubStats are one subscription's final statistics.
type SubStats struct {
	// OutputBytes is the number of result bytes the engine produced.
	OutputBytes int64 `json:"output_bytes"`
	// DroppedBytes is always 0: a subscription never discards result
	// bytes. It remains only because the benchmark module reports it
	// (stream.dropped_bytes), and goes together with that metric.
	DroppedBytes int64 `json:"dropped_bytes"`
	// PeakBufferBytes is the engine's peak buffered bytes for this
	// query over the stream — what a clean end records through
	// flux.Catalog.ObservePeak, pricing the signature's next admission.
	PeakBufferBytes int64 `json:"peak_buffer_bytes"`
	// Tokens is the number of SAX events delivered to this query.
	Tokens int64 `json:"tokens"`
	// FirstResult is the latency from Subscribe to the first result
	// byte reaching the subscriber's writer; 0 if no result was ever
	// delivered.
	FirstResult time.Duration `json:"first_result_ns"`
}

// Done returns a channel closed when the subscription has fully ended:
// stats final, output delivered.
func (s *Subscription) Done() <-chan struct{} { return s.done }

// Err returns the subscription's failure, nil for a clean end of
// stream. Meaningful once Done is closed.
func (s *Subscription) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Stats returns the subscription's statistics. Final once Done is
// closed; before that it reports what has been recorded so far.
func (s *Subscription) Stats() SubStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// finish records the subscription's final stats and failure, records
// a clean run's observed peak with the catalog, releases the admission
// charge, and closes the ring's write side so the drain
// goroutine can deliver the tail and close Done. Idempotent — the first
// outcome (mid-stream detach, end-of-stream result, rejection) wins.
func (s *Subscription) finish(st engine.Stats, err error) {
	s.finishOnce.Do(func() {
		s.mu.Lock()
		s.stats.OutputBytes = st.OutputBytes
		s.stats.PeakBufferBytes = st.PeakBufferBytes
		s.stats.Tokens = st.Tokens
		s.err = err
		stopWatch := s.stopWatch
		s.mu.Unlock()
		if err == nil {
			s.hub.cat.ObservePeak(s.doc, s.query.Plan().SigKey(), st.PeakBufferBytes)
		}
		stopWatch()
		s.release()
		s.ring.closeWrite()
		close(s.statsDone)
	})
}

// drain is the subscription's delivery goroutine: it moves bytes from
// the ring to the subscriber's writer for the life of the stream, then
// closes Done. A writer failure closes the ring's read side, which
// fails the engine's next delivery and detaches the subscription from
// the stream.
func (s *Subscription) drain() {
	buf := make([]byte, 4096)
	var werr error
	for {
		n, err := s.ring.read(buf)
		if n > 0 {
			s.mu.Lock()
			if s.stats.FirstResult == 0 {
				s.stats.FirstResult = time.Since(s.start)
			}
			s.mu.Unlock()
			if _, werr = s.w.Write(buf[:n]); werr != nil {
				s.ring.closeRead(werr)
				// Keep looping: the next read observes the closure.
			}
		}
		if err != nil {
			break
		}
	}
	<-s.statsDone
	s.mu.Lock()
	if s.err == nil && werr != nil {
		// The engine finished clean but delivery did not: the writer
		// died with buffered output still undelivered. The subscription
		// must not report success.
		s.err = werr
	}
	s.mu.Unlock()
	close(s.done)
}
