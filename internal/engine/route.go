package engine

import (
	"context"
	"io"

	"flux/internal/sax"
)

// RunSelectiveContext executes a compiled plan with signature-pruned
// scanning: the plan's projected-path signature is handed to the
// batched scanner as a prune trie (sax.Options.Prune), so subtrees the plan provably
// ignores are consumed raw at the byte level — no tokenization, no
// event delivery — and reach the engine as single SkipSubtree steps.
// This is the streaming counterpart of the DOM projection baseline's
// tree pruning, applied one layer earlier than a routing multiplexer
// could: the skipped bytes never become tokens at all.
//
// Output and statistics are identical to Run; the difference is
// validation coverage — the interior of a pruned subtree is not checked
// against the DTD or for tag well-formedness (its own tag is still
// validated by the parent's content model), the same trade
// mux.NewSelective makes for shared scans. Use ValidateDocument when
// full-document validation is required. Cancellation follows the same
// contract as RunContext.
func RunSelectiveContext(ctx context.Context, plan *Plan, r io.Reader, w io.Writer, opt sax.Options) (Stats, error) {
	if plan.Signature() == nil {
		return RunContext(ctx, plan, r, w, opt)
	}
	s := NewSession(plan, w)
	if err := s.Begin(); err != nil {
		return s.Abort(), err
	}
	opt.Prune = plan.Prune()
	if err := sax.ScanBatchedContext(ctx, r, s, opt); err != nil {
		return s.Abort(), err
	}
	return s.Finish()
}
