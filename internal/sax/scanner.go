package sax

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// Options configures a scan.
type Options struct {
	// AttrsToSubelements converts each attribute a="v" on element e into a
	// leading subelement <e_a>v</e_a>, in attribute order. This is the
	// "XSAX" conversion from the paper's benchmark setup. If false,
	// attributes are silently dropped.
	AttrsToSubelements bool

	// SkipWhitespaceText suppresses text events that consist entirely of
	// XML whitespace. Element-content DTD productions treat such text as
	// insignificant, so the engine enables this.
	SkipWhitespaceText bool

	// Prune, when non-nil, enables scanner-level subtree pruning for
	// batched scans: an element with no entry in the trie is consumed
	// raw and delivered as a single SkipElement token instead of being
	// tokenized (see PruneNode). Per-event (Handler) scans clear it —
	// the Handler interface has no skip event.
	Prune *PruneNode

	// EagerFlush makes a batched scan deliver its accumulated batch
	// before every input refill — i.e. before any read that might block.
	// Pull scans over complete documents leave this off: batches fill to
	// their token/arena limits, amortizing delivery. Push scans over
	// live feeds (StartChunked) turn it on, so events parsed from the
	// bytes received so far reach the handler even when the next chunk
	// is minutes away; the cost is smaller batches when the producer is
	// slower than the scanner.
	EagerFlush bool
}

// SyntaxError describes a malformed-XML failure with a byte offset.
type SyntaxError struct {
	// Offset is the byte position in the input where the error was
	// detected.
	Offset int64
	// Msg describes what was malformed.
	Msg string
}

// Error implements error.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("sax: syntax error at byte %d: %s", e.Offset, e.Msg)
}

// scannerPool recycles scanners — the 64 KB input block, the name
// interning table, and the scratch buffers — so a resident server running
// many scans does not re-allocate them per query batch.
var scannerPool sync.Pool

// inputBlockSize is the scanner's input buffer: input is consumed a
// block at a time and scanned in place, and the context is polled once
// per refilled block.
const inputBlockSize = 64 << 10

// maxPooledNames bounds the interning table carried across pooled scans;
// a table blown up by one adversarial document is dropped rather than
// pinned in memory forever.
const maxPooledNames = 1 << 12

// maxPooledScratch likewise bounds the pooled scratch buffers (name,
// attribute, and text accumulation), which one huge value would
// otherwise pin.
const maxPooledScratch = 64 << 10

// Scan reads the XML document from r and delivers SAX events to h.
// It validates well-formedness (tag nesting, a single document element)
// but not any schema. Processing instructions, comments, and the DOCTYPE
// declaration are skipped; character data they split, like character
// data split by CDATA sections, arrives as one Text event.
func Scan(r io.Reader, h Handler, opt Options) error {
	return ScanContext(context.Background(), r, h, opt)
}

// ScanContext is Scan with cancellation: the scan loop polls ctx at
// input-block granularity (every 64 KB consumed) and stops mid-stream
// with ctx.Err() once the context is done, instead of burning through
// the rest of the document. A nil ctx means the scan is never canceled.
//
// Handler scans run on the batched tokenizer: events reach h a batch at
// a time, so when both h and the input fail, h's error wins if it was
// raised by an event that precedes the input failure — even though the
// scanner had already read past that event when it was delivered.
func ScanContext(ctx context.Context, r io.Reader, h Handler, opt Options) error {
	opt.Prune = nil // a Handler cannot receive SkipElement
	a := handlerAdapter{h: h}
	err := ScanBatchedContext(ctx, r, &a, opt)
	if a.err != nil {
		return a.err
	}
	return err
}

// handlerAdapter is the BatchHandler behind Scan: it unpacks each batch
// into per-event Handler calls, copying text payloads out of the arena.
type handlerAdapter struct {
	h Handler
	// err is the Handler's first error. ScanBatchedContext reports the
	// scan error over a handler error raised while flushing the events
	// before it; the Handler contract is the reverse, so ScanContext
	// prefers this.
	err error
}

// HandleBatch implements BatchHandler.
func (a *handlerAdapter) HandleBatch(b *Batch) error {
	for i := range b.Tokens {
		t := &b.Tokens[i]
		switch t.Kind {
		case StartElement:
			a.err = a.h.StartElement(t.Name)
		case EndElement:
			a.err = a.h.EndElement(t.Name)
		default:
			a.err = a.h.Text(string(t.Data))
		}
		if a.err != nil {
			return a.err
		}
	}
	return nil
}

func getScanner() *scanner {
	s, _ := scannerPool.Get().(*scanner)
	if s == nil {
		s = &scanner{
			in:    make([]byte, 0, inputBlockSize),
			names: make(map[string]string, 64),
		}
	}
	return s
}

// recycle clears per-scan state and returns the scanner to the pool. The
// interning table is kept (element names repeat across scans of the same
// corpus) unless it has grown past maxPooledNames.
func (s *scanner) recycle() {
	s.rd = nil
	s.bh = nil
	s.ctx = nil
	s.opt = Options{}
	s.in = s.in[:0]
	s.pos, s.lim = 0, 0
	s.base = 0
	s.srcEOF = false
	s.readErr = nil
	s.nextErr = nil
	clear(s.stack[:cap(s.stack)])
	s.stack = s.stack[:0]
	clear(s.prune[:cap(s.prune)])
	s.prune = s.prune[:0]
	if cap(s.text) > maxPooledScratch {
		s.text = nil
	} else {
		s.text = s.text[:0]
	}
	if cap(s.buf) > maxPooledScratch {
		s.buf = nil
	} else {
		s.buf = s.buf[:0]
	}
	if cap(s.attrVals) > maxPooledScratch {
		s.attrVals = nil
	} else {
		s.attrVals = s.attrVals[:0]
	}
	if len(s.names) > maxPooledNames {
		s.names = make(map[string]string, 64)
		s.nameCache = [nameCacheSize]string{}
	}
	scannerPool.Put(s)
}

// ScanString is a convenience wrapper around Scan for in-memory documents.
func ScanString(doc string, h Handler, opt Options) error {
	return Scan(strings.NewReader(doc), h, opt)
}

type scanner struct {
	rd  io.Reader
	bh  BatchHandler
	ctx context.Context
	opt Options

	// Input block. in[pos:lim] is unconsumed data; base is the absolute
	// stream offset of in[0].
	in     []byte
	pos    int
	lim    int
	base   int64
	srcEOF bool

	readErr error // sticky non-EOF read failure (I/O error, cancellation)
	nextErr error // read error delivered after its batch of bytes drains

	stack []string
	text  []byte            // character-data accumulation scratch
	names map[string]string // interning table for element names
	// nameCache is a direct-mapped cache in front of names: element names
	// repeat constantly, and a cheap byte-derived index plus one string
	// compare beats a hashed map lookup per tag.
	nameCache [nameCacheSize]string
	buf       []byte // name/attribute scratch

	// textStart is the stream offset where the pending character data
	// began: the offset a rejected reference in it is reported at.
	textStart int64

	// attrs and attrVals hold the current start tag's attributes under
	// AttrsToSubelements: names, and spans of the decoded values, which
	// are packed into attrVals. Both are reused from tag to tag.
	attrs    []attrSpan
	attrVals []byte

	// prune, when non-empty, is the prune-trie cursor stack alongside
	// stack (scans with Options.Prune only; see prune.go).
	prune []*PruneNode

	// Batch delivery state (see batch.go).
	ring     [batchRingSize]*Batch
	ringPos  int
	bhFailed bool // HandleBatch returned an error; do not flush again
}

// offset is the absolute stream offset of the next unconsumed byte.
func (s *scanner) offset() int64 { return s.base + int64(s.pos) }

// errf builds a SyntaxError — unless the reader itself failed, in which
// case that failure is the root cause and must not be masked as
// "unexpected EOF": a canceled context or an I/O error mid-name is a
// read failure, not malformed XML.
func (s *scanner) errf(format string, args ...any) error {
	if s.readErr != nil {
		return s.readErr
	}
	return &SyntaxError{Offset: s.offset(), Msg: fmt.Sprintf(format, args...)}
}

// refill loads the next input block. It must only be called with the
// current block fully consumed (pos == lim), and polls the context once
// per block — the cancellation granularity of the whole scan.
func (s *scanner) refill() error {
	if s.readErr != nil {
		return s.readErr
	}
	if s.nextErr != nil {
		err := s.nextErr
		s.nextErr = nil
		if err != io.EOF {
			s.readErr = err
		} else {
			s.srcEOF = true
		}
		return err
	}
	if s.srcEOF {
		return io.EOF
	}
	if cerr := s.ctx.Err(); cerr != nil {
		s.readErr = cerr
		return cerr
	}
	if s.opt.EagerFlush {
		// About to read — possibly block — on a live feed: hand the
		// events parsed so far to the handler first. A handler failure
		// here is a delivery failure, not malformed input; recording it
		// as the read error keeps errf from dressing it as a syntax
		// error.
		if ferr := s.flushBatch(); ferr != nil {
			s.readErr = ferr
			return ferr
		}
	}
	s.base += int64(s.lim)
	s.pos, s.lim = 0, 0
	s.in = s.in[:cap(s.in)]
	for {
		n, err := s.rd.Read(s.in)
		if n > 0 {
			s.in = s.in[:n]
			s.lim = n
			if err != nil {
				s.nextErr = err // deliver after these bytes drain
			}
			return nil
		}
		if err == io.EOF {
			s.in = s.in[:0]
			s.srcEOF = true
			return io.EOF
		}
		if err != nil {
			s.in = s.in[:0]
			s.readErr = err
			return err
		}
	}
}

func (s *scanner) readByte() (byte, error) {
	if s.pos < s.lim {
		b := s.in[s.pos]
		s.pos++
		return b, nil
	}
	if err := s.refill(); err != nil {
		return 0, err
	}
	b := s.in[s.pos]
	s.pos++
	return b, nil
}

// unreadByte steps back one byte. It is only valid immediately after a
// successful readByte, which guarantees pos > 0.
func (s *scanner) unreadByte() { s.pos-- }

const nameCacheSize = 512

// nameCacheIdx derives a direct-mapped cache slot from cheap byte
// features of a name; collisions just fall through to the map.
func nameCacheIdx(b []byte) int {
	return (int(b[0])*31 + int(b[len(b)-1])*7 + len(b)) & (nameCacheSize - 1)
}

// intern returns a canonical string for the name bytes, avoiding an
// allocation per occurrence of a repeated element name.
func (s *scanner) intern(b []byte) string {
	i := nameCacheIdx(b)
	if c := s.nameCache[i]; c == string(b) { // no alloc: comparison only
		return c
	}
	n, ok := s.names[string(b)] // no alloc: map lookup on []byte key
	if !ok {
		n = string(b)
		s.names[n] = n
	}
	s.nameCache[i] = n
	return n
}

// --- Event emission ------------------------------------------------------
//
// The scanner body parses markup and calls the emit* methods, which
// append Tokens to the current Batch (copying text into the batch
// arena) and flush a full batch to the BatchHandler.

func (s *scanner) emitStart(name string) error {
	b := s.curBatch()
	if len(b.Tokens) >= maxBatchTokens {
		if err := s.flushBatch(); err != nil {
			return err
		}
		b = s.curBatch()
	}
	b.Tokens = append(b.Tokens, Token{Kind: StartElement, Name: name})
	return nil
}

func (s *scanner) emitEnd(name string) error {
	b := s.curBatch()
	if len(b.Tokens) >= maxBatchTokens {
		if err := s.flushBatch(); err != nil {
			return err
		}
		b = s.curBatch()
	}
	b.Tokens = append(b.Tokens, Token{Kind: EndElement, Name: name})
	return nil
}

// emitDecodedText delivers already-decoded character data (attribute
// values under AttrsToSubelements).
func (s *scanner) emitDecodedText(v []byte) error {
	if err := s.roomFor(len(v)); err != nil {
		return err
	}
	b := s.curBatch()
	start := len(b.arena)
	b.arena = append(b.arena, v...)
	b.Tokens = append(b.Tokens, Token{Kind: Text, Data: b.arena[start:len(b.arena):len(b.arena)]})
	return nil
}

// flushText delivers the accumulated character data, decoding entity
// references.
func (s *scanner) flushText() error {
	t := s.text
	if len(t) == 0 {
		return nil
	}
	s.text = s.text[:0]
	return s.emitTextSeg(t)
}

// emitTextSeg delivers one complete character-data segment (t may point
// into the input block or the text scratch; it is consumed before
// return). The decoded bytes go straight into the batch arena: no
// string is allocated per text event. A reference the decoder rejects
// is reported at s.textStart, the start of the segment, which is the
// same byte however the input was split into blocks.
func (s *scanner) emitTextSeg(t []byte) error {
	if s.opt.SkipWhitespaceText && isAllSpaceBytes(t) {
		return nil
	}
	// Decoding only ever shrinks (every reference is at least as long as
	// its replacement), so len(t) bounds the arena bytes needed.
	if err := s.roomFor(len(t)); err != nil {
		return err
	}
	b := s.curBatch()
	start := len(b.arena)
	if bytes.IndexByte(t, '&') < 0 {
		b.arena = append(b.arena, t...)
	} else {
		var err error
		if b.arena, err = appendDecoded(b.arena, t); err != nil {
			return &SyntaxError{Offset: s.textStart, Msg: err.Error()}
		}
	}
	b.Tokens = append(b.Tokens, Token{Kind: Text, Data: b.arena[start:len(b.arena):len(b.arena)]})
	return nil
}

// --- Scan loop -----------------------------------------------------------

func (s *scanner) run() error {
	sawRoot := false
	for {
		// Bulk-scan the current block for the next markup boundary,
		// accumulating any character data in between.
		if s.pos < s.lim && s.in[s.pos] != '<' {
			if err := s.textRun(); err != nil {
				return err
			}
			continue
		}
		b, err := s.readByte()
		if err == io.EOF {
			if len(s.stack) > 0 {
				return s.errf("unexpected EOF: %d unclosed element(s), innermost <%s>", len(s.stack), s.stack[len(s.stack)-1])
			}
			if !sawRoot {
				return s.errf("empty document")
			}
			return nil
		}
		if err != nil {
			return err
		}
		if b == '<' {
			if err := s.markup(&sawRoot); err != nil {
				return err
			}
			continue
		}
		// Only reachable when the block was empty before readByte: put the
		// byte back and take the bulk path.
		s.unreadByte()
		if err := s.textRun(); err != nil {
			return err
		}
	}
}

// textRun consumes the maximal run of character data starting at the
// current position — everything up to the next '<'. A run that lies
// entirely within the current block and ends at a tag is emitted
// straight from the input buffer, skipping the text scratch; runs that
// straddle blocks, or that a CDATA section, comment or PI may continue,
// accumulate. Outside the document element only whitespace is legal.
func (s *scanner) textRun() error {
	if len(s.text) == 0 && len(s.stack) > 0 {
		chunk := s.in[s.pos:s.lim]
		if i := bytes.IndexByte(chunk, '<'); i >= 0 && i+1 < len(chunk) && chunk[i+1] != '!' && chunk[i+1] != '?' {
			s.textStart = s.offset()
			s.pos += i
			return s.emitTextSeg(chunk[:i])
		}
	}
	for {
		chunk := s.in[s.pos:s.lim]
		i := bytes.IndexByte(chunk, '<')
		seg := chunk
		if i >= 0 {
			seg = chunk[:i]
		}
		if len(s.stack) == 0 {
			for j := 0; j < len(seg); j++ {
				if !isXMLSpace(seg[j]) {
					s.pos += j + 1
					return s.errf("character data %q outside document element", seg[j])
				}
			}
		} else {
			if len(s.text) == 0 {
				s.textStart = s.offset()
			}
			s.text = append(s.text, seg...)
		}
		s.pos += len(seg)
		if i >= 0 {
			return nil
		}
		if err := s.refill(); err != nil {
			if err == io.EOF {
				return nil // run() handles end of stream
			}
			return err
		}
	}
}

// markup handles everything after a '<'. Character data accumulated so
// far is delivered before a tag; CDATA sections, comments and PIs leave
// it pending, so text they split reaches the handler as one Text event,
// the text node a serialize → rescan round trip sees.
func (s *scanner) markup(sawRoot *bool) error {
	b, err := s.readByte()
	if err != nil {
		return s.errf("unexpected EOF after '<'")
	}
	switch b {
	case '?':
		return s.skipPI()
	case '!':
		return s.bangMarkup()
	}
	if err := s.flushText(); err != nil {
		return err
	}
	switch {
	case b == '/':
		return s.endTag()
	default:
		s.unreadByte()
		if len(s.stack) == 0 && *sawRoot {
			return s.errf("content after document element")
		}
		*sawRoot = true
		return s.startTag()
	}
}

// readName scans an element or attribute name. The fast path resolves
// the whole name inside the current block; the scratch buffer is only
// used when a name straddles a block boundary.
func (s *scanner) readName() (string, error) {
	i := s.pos
	for i < s.lim && isNameByte(s.in[i]) {
		i++
	}
	if i < s.lim {
		if i == s.pos {
			return "", s.errf("expected name")
		}
		n := s.intern(s.in[s.pos:i])
		s.pos = i
		return n, nil
	}
	// Name may continue into the next block: fall back to scratch.
	s.buf = append(s.buf[:0], s.in[s.pos:i]...)
	s.pos = i
	for {
		b, err := s.readByte()
		if err != nil {
			if err == io.EOF && len(s.buf) > 0 {
				// A name ending exactly at EOF is always malformed markup —
				// let the caller report the context.
				return "", s.errf("unexpected EOF in name")
			}
			return "", s.errf("unexpected EOF in name")
		}
		if isNameByte(b) {
			s.buf = append(s.buf, b)
			continue
		}
		s.unreadByte()
		break
	}
	if len(s.buf) == 0 {
		return "", s.errf("expected name")
	}
	return s.intern(s.buf), nil
}

func (s *scanner) skipSpace() error {
	for {
		b, err := s.readByte()
		if err != nil {
			return err
		}
		if !isXMLSpace(b) {
			s.unreadByte()
			return nil
		}
	}
}

func (s *scanner) startTag() error {
	name, err := s.readName()
	if err != nil {
		return err
	}
	// Prune-trie descent: an element the trie has no entry for collapses
	// into one SkipElement token, its bytes consumed raw.
	var pnext *PruneNode
	if len(s.prune) > 0 {
		cur := s.prune[len(s.prune)-1]
		pnext = cur
		if !cur.All {
			if pnext = cur.Kids[name]; pnext == nil {
				return s.skipElement(name)
			}
		}
	}
	s.attrs, s.attrVals = s.attrs[:0], s.attrVals[:0]
	selfClose := false
	for {
		if err := s.skipSpace(); err != nil {
			return s.errf("unexpected EOF in <%s ...>", name)
		}
		b, err := s.readByte()
		if err != nil {
			return s.errf("unexpected EOF in <%s ...>", name)
		}
		if b == '>' {
			break
		}
		if b == '/' {
			b2, err := s.readByte()
			if err != nil || b2 != '>' {
				return s.errf("expected '/>' in <%s ...>", name)
			}
			selfClose = true
			break
		}
		s.unreadByte()
		aname, err := s.readName()
		if err != nil {
			return err
		}
		if err := s.skipSpace(); err != nil {
			return s.errf("unexpected EOF in attribute %s", aname)
		}
		b, err = s.readByte()
		if err != nil || b != '=' {
			return s.errf("expected '=' after attribute name %s", aname)
		}
		if err := s.skipSpace(); err != nil {
			return s.errf("unexpected EOF in attribute %s", aname)
		}
		quote, err := s.readByte()
		if err != nil || (quote != '"' && quote != '\'') {
			return s.errf("expected quoted value for attribute %s", aname)
		}
		s.buf = s.buf[:0]
		for {
			b, err := s.readByte()
			if err != nil {
				return s.errf("unexpected EOF in attribute value of %s", aname)
			}
			if b == quote {
				break
			}
			s.buf = append(s.buf, b)
		}
		if s.opt.AttrsToSubelements {
			start := len(s.attrVals)
			if s.attrVals, err = appendDecoded(s.attrVals, s.buf); err != nil {
				return s.errf("attribute %s: %v", aname, err)
			}
			s.attrs = append(s.attrs, attrSpan{aname, start, len(s.attrVals)})
		}
	}

	if err := s.emitStart(name); err != nil {
		return err
	}
	if s.opt.AttrsToSubelements {
		for _, a := range s.attrs {
			s.buf = append(append(append(s.buf[:0], name...), '_'), a.name...)
			sub := s.intern(s.buf)
			if pnext != nil && !pnext.All && pnext.Kids[sub] == nil {
				if err := s.emitSkip(sub); err != nil {
					return err
				}
				continue
			}
			if err := s.emitStart(sub); err != nil {
				return err
			}
			if a.end > a.start {
				if err := s.emitDecodedText(s.attrVals[a.start:a.end]); err != nil {
					return err
				}
			}
			if err := s.emitEnd(sub); err != nil {
				return err
			}
		}
	}
	if selfClose {
		return s.emitEnd(name)
	}
	s.stack = append(s.stack, name)
	if pnext != nil {
		s.prune = append(s.prune, pnext)
	}
	return nil
}

// attrSpan is one attribute of the current start tag: its name and the
// span of its decoded value in scanner.attrVals.
type attrSpan struct {
	name       string
	start, end int
}

func (s *scanner) endTag() error {
	name, err := s.readName()
	if err != nil {
		return err
	}
	if err := s.skipSpace(); err != nil {
		return s.errf("unexpected EOF in </%s>", name)
	}
	b, err := s.readByte()
	if err != nil || b != '>' {
		return s.errf("expected '>' in </%s>", name)
	}
	if len(s.stack) == 0 {
		return s.errf("close tag </%s> with no open element", name)
	}
	top := s.stack[len(s.stack)-1]
	if top != name {
		return s.errf("close tag </%s> does not match open <%s>", name, top)
	}
	s.stack = s.stack[:len(s.stack)-1]
	if len(s.prune) > 0 {
		s.prune = s.prune[:len(s.prune)-1]
	}
	return s.emitEnd(name)
}

// skipPI consumes a processing instruction (or XML declaration) up to "?>".
func (s *scanner) skipPI() error {
	prev := byte(0)
	for {
		b, err := s.readByte()
		if err != nil {
			return s.errf("unexpected EOF in processing instruction")
		}
		if prev == '?' && b == '>' {
			return nil
		}
		prev = b
	}
}

// bangMarkup handles "<!" constructs: comments, CDATA, and DOCTYPE.
func (s *scanner) bangMarkup() error {
	b, err := s.readByte()
	if err != nil {
		return s.errf("unexpected EOF after '<!'")
	}
	switch b {
	case '-':
		b2, err := s.readByte()
		if err != nil || b2 != '-' {
			return s.errf("malformed comment")
		}
		return s.skipComment()
	case '[':
		return s.cdata()
	default:
		s.unreadByte()
		return s.skipDoctype()
	}
}

func (s *scanner) skipComment() error {
	dashes := 0
	for {
		b, err := s.readByte()
		if err != nil {
			return s.errf("unexpected EOF in comment")
		}
		switch {
		case b == '-':
			dashes++
		case b == '>' && dashes >= 2:
			return nil
		default:
			dashes = 0
		}
	}
}

func (s *scanner) cdata() error {
	const open = "CDATA["
	for i := 0; i < len(open); i++ {
		b, err := s.readByte()
		if err != nil || b != open[i] {
			return s.errf("malformed CDATA section")
		}
	}
	if len(s.stack) == 0 {
		return s.errf("CDATA outside document element")
	}
	if len(s.text) == 0 {
		s.textStart = s.offset()
	}
	// The section's content joins the pending character data, which
	// flushText entity-decodes: a literal '&' is stored as "&amp;" so it
	// decodes back to itself.
	brackets := 0
	for {
		b, err := s.readByte()
		if err != nil {
			return s.errf("unexpected EOF in CDATA section")
		}
		switch {
		case b == ']':
			if brackets == 2 {
				s.text = append(s.text, ']')
			} else {
				brackets++
			}
		case b == '>' && brackets >= 2:
			return nil
		case b == '&':
			for ; brackets > 0; brackets-- {
				s.text = append(s.text, ']')
			}
			s.text = append(s.text, "&amp;"...)
		default:
			for ; brackets > 0; brackets-- {
				s.text = append(s.text, ']')
			}
			s.text = append(s.text, b)
		}
	}
}

// skipDoctype consumes a DOCTYPE declaration, including an internal subset.
func (s *scanner) skipDoctype() error {
	depth := 0
	for {
		b, err := s.readByte()
		if err != nil {
			return s.errf("unexpected EOF in DOCTYPE")
		}
		switch b {
		case '[':
			depth++
		case ']':
			depth--
		case '>':
			if depth <= 0 {
				return nil
			}
		}
	}
}

func isXMLSpace(b byte) bool {
	return b == ' ' || b == '\t' || b == '\n' || b == '\r'
}

func isAllSpaceBytes(s []byte) bool {
	for i := 0; i < len(s); i++ {
		if !isXMLSpace(s[i]) {
			return false
		}
	}
	return true
}

func isNameByte(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' ||
		b >= '0' && b <= '9' || b == '_' || b == '-' || b == '.' || b == ':' || b >= 0x80
}

// appendDecoded appends s to dst with the five predefined XML entities
// and numeric character references resolved, without allocating.
// Unknown entities and malformed references are left verbatim; a
// reference to a character outside XML's Char production fails, since
// writing it out would not be well-formed XML. The decoded form is never
// longer than the input.
func appendDecoded(dst, s []byte) ([]byte, error) {
	for len(s) > 0 {
		if s[0] != '&' {
			next := bytes.IndexByte(s, '&')
			if next < 0 {
				return append(dst, s...), nil
			}
			dst = append(dst, s[:next]...)
			s = s[next:]
			continue
		}
		semi := bytes.IndexByte(s, ';')
		if semi < 0 || semi > 12 {
			dst = append(dst, '&')
			s = s[1:]
			continue
		}
		ent := s[1:semi]
		switch {
		case string(ent) == "lt":
			dst = append(dst, '<')
		case string(ent) == "gt":
			dst = append(dst, '>')
		case string(ent) == "amp":
			dst = append(dst, '&')
		case string(ent) == "apos":
			dst = append(dst, '\'')
		case string(ent) == "quot":
			dst = append(dst, '"')
		case len(ent) > 0 && ent[0] == '#':
			num := ent[1:]
			base := 10
			if len(num) > 0 && (num[0] == 'x' || num[0] == 'X') {
				num, base = num[1:], 16
			}
			n, err := strconv.ParseInt(string(num), base, 32)
			switch {
			case err == nil && isXMLChar(n):
				dst = utf8.AppendRune(dst, rune(n))
			case err == nil && n >= 0 || errors.Is(err, strconv.ErrRange):
				return dst, fmt.Errorf("character reference %s to a character XML forbids", s[:semi+1])
			default:
				dst = append(dst, s[:semi+1]...)
			}
		default:
			dst = append(dst, s[:semi+1]...)
		}
		s = s[semi+1:]
	}
	return dst, nil
}

// isXMLChar reports whether n is in XML 1.0's Char production: tab, line
// feed, carriage return, and the Unicode scalar values from U+0020 up
// except the surrogates, U+FFFE and U+FFFF.
func isXMLChar(n int64) bool {
	return n == 0x9 || n == 0xA || n == 0xD ||
		n >= 0x20 && n <= 0xD7FF ||
		n >= 0xE000 && n <= 0xFFFD ||
		n >= 0x10000 && n <= 0x10FFFF
}
