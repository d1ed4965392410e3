package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"time"

	"flux"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// digest identifies a query result by crc32c and length, so results of
// any size are compared without being kept.
type digest struct {
	crc uint32
	n   int64
}

// digestWriter folds everything written to it into a digest. Each
// measured result goes through one; a writer belongs to one result.
type digestWriter struct{ digest }

func (d *digestWriter) Write(p []byte) (int, error) {
	d.crc = crc32.Update(d.crc, castagnoli, p)
	d.n += int64(len(p))
	return len(p), nil
}

// ref is what one (document, query) pair must produce: the digest of
// its solo streaming run, that run's peak buffer, and how long it took
// (the service time the serving layers' overhead is measured against).
type ref struct {
	dig    digest
	peak   int64
	soloNs int64
}

// oracleMaxBytes is the largest document the naive engine (full
// materialization) is asked to evaluate; larger documents are checked
// through a 1/16-scale sibling generated from the same seed.
const oracleMaxBytes = 5 << 20

// runSolo evaluates q alone over data with the given engine.
func runSolo(ctx context.Context, q *flux.Query, data []byte, eng flux.Engine) (ref, error) {
	var w digestWriter
	start := time.Now()
	st, err := q.RunContext(ctx, bytes.NewReader(data), &w, flux.Options{Engine: eng})
	return ref{dig: w.digest, peak: st.PeakBufferBytes, soloNs: time.Since(start).Nanoseconds()}, err
}

// buildRefs computes the reference table. Every pair's solo streaming
// digest must equal the naive engine's digest of the same input — the
// document itself when it is small enough, its sibling otherwise — or
// set-up fails: a benchmark of wrong answers measures nothing.
func (e *env) buildRefs(ctx context.Context) error {
	e.refs = make([][]ref, len(e.docs))
	for d, doc := range e.docs {
		e.refs[d] = make([]ref, len(e.queries))
		for qi, q := range e.queries {
			r, err := runSolo(ctx, q.q, doc.data, flux.FluX)
			if err != nil {
				return fmt.Errorf("reference %s over %s: %w", q.name, doc.name, err)
			}
			e.refs[d][qi] = r
			small, got := doc.data, r
			if e.sibling != nil {
				sib, err := runSolo(ctx, q.q, e.sibling, flux.FluX)
				if err != nil {
					return fmt.Errorf("reference %s over sibling: %w", q.name, err)
				}
				e.sibRefs = append(e.sibRefs, sib)
				if len(doc.data) > oracleMaxBytes {
					small, got = e.sibling, sib
				}
			} else if len(doc.data) > oracleMaxBytes {
				return fmt.Errorf("oracle: %s is %d bytes and has no sibling to check against", doc.name, len(doc.data))
			}
			want, err := runSolo(ctx, q.q, small, flux.Naive)
			if err != nil {
				return fmt.Errorf("naive %s over %s: %w", q.name, doc.name, err)
			}
			if got.dig != want.dig {
				return fmt.Errorf("oracle: %s over %s: streaming result (crc %08x, %d bytes) differs from naive (crc %08x, %d bytes)",
					q.name, doc.name, got.dig.crc, got.dig.n, want.dig.crc, want.dig.n)
			}
		}
	}
	return nil
}

// checkBufferFlat is the paper's second claim as an invariant: across
// the 16x size step from the sibling to the full document, the
// zero-buffer queries stay at zero and the others grow by less than 2x.
func checkBufferFlat(ctx context.Context, e *env) error {
	for qi, q := range e.queries {
		small, full := e.sibRefs[qi].peak, e.refs[0][qi].peak
		switch q.name {
		case "q1", "q13":
			if small != 0 || full != 0 {
				return fmt.Errorf("buffer-flat: %s buffers %d bytes at 1/16 scale and %d at full scale, want 0", q.name, small, full)
			}
		default:
			if full >= 2*small {
				return fmt.Errorf("buffer-flat: %s peak grew from %d to %d bytes over a 16x size step", q.name, small, full)
			}
		}
	}
	return nil
}

// checkProjectionBound asserts the streaming engine buffers no more
// than the static-projection baseline does for the same query.
func checkProjectionBound(ctx context.Context, e *env) error {
	for qi, q := range e.queries {
		proj, err := runSolo(ctx, q.q, e.docs[0].data, flux.Projection)
		if err != nil {
			return fmt.Errorf("projection %s: %w", q.name, err)
		}
		if got := e.refs[0][qi].peak; got > proj.peak {
			return fmt.Errorf("projection bound: %s buffers %d bytes, the projection engine %d", q.name, got, proj.peak)
		}
	}
	return nil
}
