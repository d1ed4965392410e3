// Package dom implements the two in-memory baseline engines the FluX
// paper compares against: a naive engine that materializes the whole
// document before evaluating (the Galax stand-in), and a projection-based
// engine that materializes only the paths a query can touch (the
// Marian–Siméon [14] / AnonX stand-in). The naive evaluator also serves
// as the semantics oracle for differential testing of the streaming
// engine.
package dom

import (
	"context"
	"io"
	"strings"

	"flux/internal/sax"
)

// Node is an in-memory XML node. A text node has Name == "" and Text set;
// an element node has Name set and children in Kids.
type Node struct {
	Name string
	Text string
	Kids []*Node
}

// IsText reports whether n is a text node.
func (n *Node) IsText() bool { return n.Name == "" }

// Build materializes the document read from r as a Node tree and returns
// its root element. The scan stops with ctx.Err() once ctx is done.
func Build(ctx context.Context, r io.Reader, opt sax.Options) (*Node, error) {
	b := &builder{}
	if err := sax.ScanContext(ctx, r, b, opt); err != nil {
		return nil, err
	}
	return b.root, nil
}

// BuildString is Build over an in-memory document.
func BuildString(doc string, opt sax.Options) (*Node, error) {
	return Build(context.Background(), strings.NewReader(doc), opt)
}

type builder struct {
	root  *Node
	stack []*Node
}

func (b *builder) StartElement(name string) error {
	n := &Node{Name: name}
	if len(b.stack) == 0 {
		b.root = n
	} else {
		p := b.stack[len(b.stack)-1]
		p.Kids = append(p.Kids, n)
	}
	b.stack = append(b.stack, n)
	return nil
}

func (b *builder) Text(data string) error {
	if len(b.stack) == 0 {
		return nil
	}
	p := b.stack[len(b.stack)-1]
	if k := len(p.Kids); k > 0 && p.Kids[k-1].IsText() {
		p.Kids[k-1].Text += data
		return nil
	}
	p.Kids = append(p.Kids, &Node{Text: data})
	return nil
}

func (b *builder) EndElement(name string) error {
	b.stack = b.stack[:len(b.stack)-1]
	return nil
}

// Bytes estimates the main-memory footprint of the subtree in the same
// units the engines report: tag bytes for both element tags plus text
// bytes. nil counts as zero.
func (n *Node) Bytes() int64 {
	if n == nil {
		return 0
	}
	var total int64
	if n.IsText() {
		total += int64(len(n.Text))
	} else {
		total += int64(2*len(n.Name) + 5) // <n> </n>
	}
	for _, k := range n.Kids {
		total += k.Bytes()
	}
	return total
}

// StringValue returns the concatenated text content of the subtree (the
// XPath string value). Chains with a single child — the shape of every
// leaf field a join compares, e.g. <person_id>person0</person_id> —
// resolve without building anything.
func (n *Node) StringValue() string {
	for !n.IsText() {
		if len(n.Kids) != 1 {
			var b strings.Builder
			n.stringValue(&b)
			return b.String()
		}
		n = n.Kids[0]
	}
	return n.Text
}

func (n *Node) stringValue(b *strings.Builder) {
	if n.IsText() {
		b.WriteString(n.Text)
		return
	}
	for _, k := range n.Kids {
		k.stringValue(b)
	}
}

// Select appends to out the nodes reachable from n via the fixed path, in
// document order.
func (n *Node) Select(path []string, out []*Node) []*Node {
	if len(path) == 0 {
		return append(out, n)
	}
	for _, k := range n.Kids {
		if k.Name == path[0] {
			out = k.Select(path[1:], out)
		}
	}
	return out
}

// Serialize writes the subtree as XML to h.
func (n *Node) Serialize(h sax.Handler) error {
	if n.IsText() {
		return h.Text(n.Text)
	}
	if err := h.StartElement(n.Name); err != nil {
		return err
	}
	for _, k := range n.Kids {
		if err := k.Serialize(h); err != nil {
			return err
		}
	}
	return h.EndElement(n.Name)
}
