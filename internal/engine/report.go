package engine

import (
	"fmt"
	"sort"
	"strings"
)

// BufferReport is the static buffering analysis of a compiled plan: which
// paths will be buffered, within which variable's scope, and whether the
// whole query streams. It answers, before reading any data, the question
// Figure 4's memory column answers empirically.
type BufferReport struct {
	// Streaming is true when no scope buffers anything: the query runs
	// with zero buffered bytes on every conforming document.
	Streaming bool
	// Scopes lists the buffering scopes.
	Scopes []ScopeBuffers
	// Signature lists the plan's projected paths, rooted at the
	// document: every stream position the compiled plan observes. A
	// trailing " •" marks a position whose whole subtree is consumed
	// (stream copies, fully buffered nodes, value-comparison watcher
	// targets); other entries are tags-only spine positions. Subtrees
	// no listed path can match are skipped by selective fan-out.
	Signature []string
	// PredictedPeakBytes is a static, deterministic estimate of the
	// plan's peak buffer consumption in nominal bytes: 0 for fully
	// streaming plans, small for tags-only per-instance buffers, large
	// for document-lifetime full-subtree buffers. It is comparable
	// across plans but is not a promise about any particular document:
	// the Catalog's admission control charges it only until a run of
	// the plan's signature has completed on the document, and the
	// observed peak replaces it from then on (flux.Catalog.Charge).
	PredictedPeakBytes int64
}

// ScopeBuffers describes one buffering scope.
type ScopeBuffers struct {
	// Var is the process-stream variable owning the buffer.
	Var string
	// Elem is the element the variable binds to.
	Elem string
	// Paths are the buffered paths relative to Var; a trailing " •" marks
	// full-subtree buffering (the paper's marked nodes), otherwise only
	// element tags are kept.
	Paths []string
	// PerInstance is true when the buffer is freed at the end of each
	// element instance (constant memory when the element repeats under a
	// streamed ancestor), false only for the document scope.
	PerInstance bool
}

// Report computes the plan's static buffering analysis.
func (p *Plan) Report() BufferReport {
	var rep BufferReport
	var walk func(s *scopeSpec)
	walk = func(s *scopeSpec) {
		if s.bufTree != nil {
			sb := ScopeBuffers{
				Var:         s.Var,
				Elem:        s.Elem,
				PerInstance: s.Var != "$ROOT",
			}
			collectBufPaths(s.bufTree, nil, &sb.Paths)
			sort.Strings(sb.Paths)
			rep.Scopes = append(rep.Scopes, sb)
		}
		for _, h := range s.handlers {
			if h.child != nil {
				walk(h.child)
			}
		}
	}
	walk(p.root)
	rep.Streaming = len(rep.Scopes) == 0
	rep.Signature = p.sig.paths()
	rep.PredictedPeakBytes = p.predicted
	return rep
}

func collectBufPaths(n *bufTreeNode, prefix []string, out *[]string) {
	if n.mark {
		path := strings.Join(prefix, "/")
		if path == "" {
			path = "."
		}
		*out = append(*out, path+" •")
		return
	}
	if len(n.kids) == 0 && len(prefix) > 0 {
		*out = append(*out, strings.Join(prefix, "/"))
		return
	}
	for name, kid := range n.kids {
		collectBufPaths(kid, append(prefix, name), out)
	}
}

// String renders the report for human consumption.
func (r BufferReport) String() string {
	if r.Streaming {
		return "fully streaming: no buffers allocated\n"
	}
	var b strings.Builder
	for _, s := range r.Scopes {
		lifetime := "freed per instance"
		if !s.PerInstance {
			lifetime = "lives until end of stream"
		}
		fmt.Fprintf(&b, "buffer %s (element %s, %s):\n", s.Var, s.Elem, lifetime)
		for _, p := range s.Paths {
			fmt.Fprintf(&b, "  %s\n", p)
		}
	}
	return b.String()
}
