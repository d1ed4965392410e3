package dom

import (
	"context"
	"io"

	"flux/internal/sax"
	"flux/internal/xq"
)

// Projection is the static path analysis of the projection baseline: the
// set of root-anchored paths a query can touch, with "keep whole subtree"
// marks where values or output subtrees are needed (Marian–Siméon [14]).
type Projection struct {
	root *projNode
}

type projNode struct {
	kids    map[string]*projNode
	keepAll bool
}

func newProjNode() *projNode { return &projNode{kids: make(map[string]*projNode)} }

func (p *projNode) extend(path []string) *projNode {
	cur := p
	for _, step := range path {
		next, ok := cur.kids[step]
		if !ok {
			next = newProjNode()
			cur.kids[step] = next
		}
		cur = next
	}
	return cur
}

// AnalyzeProjection computes the projection of q. Free variables other
// than $ROOT make the analysis fail closed (keep everything) — closed
// queries never hit that case.
func AnalyzeProjection(q xq.Expr) *Projection {
	root := newProjNode()
	env := map[string]*projNode{xq.RootVar: root}
	var walk func(e xq.Expr, env map[string]*projNode)
	keepCond := func(c xq.Cond, env map[string]*projNode) {
		for _, cp := range xq.CondPaths(c, nil) {
			if n, ok := env[cp.Var]; ok {
				n.extend(cp.Path).keepAll = true
			} else {
				root.keepAll = true
			}
		}
	}
	walk = func(e xq.Expr, env map[string]*projNode) {
		switch e := e.(type) {
		case nil, *xq.Str:
		case *xq.Seq:
			for _, it := range e.Items {
				walk(it, env)
			}
		case *xq.VarOut:
			if n, ok := env[e.Var]; ok {
				n.keepAll = true
			} else {
				root.keepAll = true
			}
		case *xq.PathOut:
			if n, ok := env[e.Var]; ok {
				n.extend(e.Path).keepAll = true
			} else {
				root.keepAll = true
			}
		case *xq.If:
			keepCond(e.Cond, env)
			walk(e.Then, env)
		case *xq.For:
			src, ok := env[e.Src]
			if !ok {
				root.keepAll = true
				return
			}
			bound := src.extend(e.Path)
			inner := make(map[string]*projNode, len(env)+1)
			for k, v := range env {
				inner[k] = v
			}
			inner[e.Var] = bound
			keepCond(e.Where, inner)
			walk(e.Body, inner)
		}
	}
	walk(q, env)
	return &Projection{root: root}
}

// BuildProjected materializes only the projected part of the document:
// nodes on projection paths get their tags; marked nodes keep their whole
// subtrees. This is the loading phase of the projection baseline; like
// Build it stops with ctx.Err() once ctx is done.
func BuildProjected(ctx context.Context, r io.Reader, proj *Projection, opt sax.Options) (*Node, error) {
	b := &projBuilder{proj: proj.root}
	if err := sax.ScanContext(ctx, r, b, opt); err != nil {
		return nil, err
	}
	return b.root, nil
}

type projBuilder struct {
	proj  *projNode
	root  *Node
	stack []projFrame
}

type projFrame struct {
	node *Node     // materialized node, nil if skipped
	proj *projNode // projection position, nil under keepAll or skip
	keep bool      // inside a kept subtree
}

func (b *projBuilder) StartElement(name string) error {
	var top projFrame
	if len(b.stack) == 0 {
		// The document element always materializes as the tree root: the
		// evaluator needs an anchor even for queries that project nothing.
		pn := b.proj.kids[name]
		keep := b.proj.keepAll
		n := &Node{Name: name}
		b.root = n
		if pn != nil && pn.keepAll {
			keep = true
		}
		var proj *projNode
		if !keep && pn != nil {
			proj = pn
		}
		b.stack = append(b.stack, projFrame{node: n, proj: proj, keep: keep})
		return nil
	}
	top = b.stack[len(b.stack)-1]
	switch {
	case top.keep && top.node != nil:
		n := &Node{Name: name}
		top.node.Kids = append(top.node.Kids, n)
		b.stack = append(b.stack, projFrame{node: n, keep: true})
	case top.proj != nil:
		if pn, ok := top.proj.kids[name]; ok {
			n := &Node{Name: name}
			top.node.Kids = append(top.node.Kids, n)
			if pn.keepAll {
				b.stack = append(b.stack, projFrame{node: n, keep: true})
			} else {
				b.stack = append(b.stack, projFrame{node: n, proj: pn})
			}
		} else {
			b.stack = append(b.stack, projFrame{}) // skip subtree
		}
	default:
		b.stack = append(b.stack, projFrame{}) // skip subtree
	}
	return nil
}

func (b *projBuilder) Text(data string) error {
	if len(b.stack) == 0 {
		return nil
	}
	top := b.stack[len(b.stack)-1]
	if !top.keep || top.node == nil {
		return nil // unmarked nodes store tags only
	}
	p := top.node
	if k := len(p.Kids); k > 0 && p.Kids[k-1].IsText() {
		p.Kids[k-1].Text += data
		return nil
	}
	p.Kids = append(p.Kids, &Node{Text: data})
	return nil
}

func (b *projBuilder) EndElement(name string) error {
	b.stack = b.stack[:len(b.stack)-1]
	return nil
}

// Stats reports the resource usage of a baseline engine run.
type Stats struct {
	// BufferBytes is the size of the materialized (projected) tree, in
	// the same units as the streaming engine's buffer accounting.
	BufferBytes int64
	// OutputBytes is the number of result bytes produced.
	OutputBytes int64
}

// RunNaive evaluates q Galax-style: materialize the entire document, then
// evaluate in memory.
func RunNaive(ctx context.Context, q xq.Expr, r io.Reader, w io.Writer, opt sax.Options) (Stats, error) {
	root, err := Build(ctx, r, opt)
	if err != nil {
		return Stats{}, err
	}
	out := sax.NewWriter(w)
	if err := Eval(q, root, out); err != nil {
		return Stats{}, err
	}
	if err := out.Flush(); err != nil {
		return Stats{}, err
	}
	return Stats{BufferBytes: root.Bytes(), OutputBytes: out.BytesWritten()}, nil
}

// RunProjection evaluates q in the style of the projection baseline:
// materialize only the statically projected part of the document, then
// evaluate in memory.
func RunProjection(ctx context.Context, q xq.Expr, r io.Reader, w io.Writer, opt sax.Options) (Stats, error) {
	proj := AnalyzeProjection(q)
	root, err := BuildProjected(ctx, r, proj, opt)
	if err != nil {
		return Stats{}, err
	}
	out := sax.NewWriter(w)
	if err := Eval(q, root, out); err != nil {
		return Stats{}, err
	}
	if err := out.Flush(); err != nil {
		return Stats{}, err
	}
	return Stats{BufferBytes: root.Bytes(), OutputBytes: out.BytesWritten()}, nil
}
