package stream

import (
	"io"
	"sync"
)

// ring is the fixed-size byte buffer between one subscription's engine
// output (written on the scan goroutine) and its drain goroutine. It is
// the subscription's entire store-and-forward memory: when it fills,
// the write side blocks until the drain makes room or the read side
// closes — it never grows.
type ring struct {
	mu   sync.Mutex
	cond *sync.Cond

	buf   []byte
	start int // read position
	n     int // bytes buffered

	wclosed bool  // write side closed: drain to EOF
	rerr    error // read side closed: writes and reads fail with this
}

func newRing(size int) *ring {
	rb := &ring{buf: make([]byte, size)}
	rb.cond = sync.NewCond(&rb.mu)
	return rb
}

// Write appends p, blocking while the buffer is full. A closed read
// side fails the write with the closing error — that is how a dead
// subscriber propagates back into the scan as this session's failure.
func (rb *ring) Write(p []byte) (int, error) {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	total := len(p)
	for len(p) > 0 {
		if rb.rerr != nil {
			return total - len(p), rb.rerr
		}
		if rb.wclosed {
			// The subscription already finished (e.g. its context was
			// canceled while the stream was idle); late engine output
			// has nowhere to go and must fail the session rather than
			// fill — and possibly block — an abandoned buffer.
			return total - len(p), io.ErrClosedPipe
		}
		space := len(rb.buf) - rb.n
		if space == 0 {
			rb.cond.Wait()
			continue
		}
		k := min(space, len(p))
		end := (rb.start + rb.n) % len(rb.buf)
		c := copy(rb.buf[end:], p[:k])
		if c < k {
			copy(rb.buf, p[c:k])
		}
		rb.n += k
		p = p[k:]
		rb.cond.Broadcast()
	}
	return total, nil
}

// read copies buffered bytes into p, blocking while the buffer is empty
// and both sides are open. It returns io.EOF once the write side is
// closed and the buffer drained, or the read-side closing error
// immediately (buffered bytes are discarded — the reader is gone).
func (rb *ring) read(p []byte) (int, error) {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	for {
		if rb.rerr != nil {
			return 0, rb.rerr
		}
		if rb.n > 0 {
			break
		}
		if rb.wclosed {
			return 0, io.EOF
		}
		rb.cond.Wait()
	}
	k := min(len(p), rb.n)
	c := copy(p[:k], rb.buf[rb.start:])
	if c < k {
		copy(p[c:k], rb.buf)
	}
	rb.start = (rb.start + k) % len(rb.buf)
	rb.n -= k
	rb.cond.Broadcast()
	return k, nil
}

// closeWrite ends the stream of writes: readers drain what is buffered
// and then see io.EOF. Idempotent.
func (rb *ring) closeWrite() {
	rb.mu.Lock()
	rb.wclosed = true
	rb.cond.Broadcast()
	rb.mu.Unlock()
}

// closeRead abandons the buffer from the read side: blocked and future
// writes (and reads) fail with err. Idempotent; the first error wins.
func (rb *ring) closeRead(err error) {
	if err == nil {
		err = io.ErrClosedPipe
	}
	rb.mu.Lock()
	if rb.rerr == nil {
		rb.rerr = err
	}
	rb.cond.Broadcast()
	rb.mu.Unlock()
}
