package main

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flux"
	"flux/internal/shard"
	"flux/internal/stream"
)

// measurement is what one run of a workload's loop yields, before it is
// folded into metrics.
type measurement struct {
	lat       []float64   // ms, one per operation (scan loops: per pass), in completion order
	byQuery   [][]float64 // scan and stream loops: ms of every run, by query
	mbs, qps  []float64   // one per pass (scan, stream) or per slice of the window (serving)
	peak      float64     // peak_buffer_bytes
	attempted int64
	failed    int64
	ops       []opResult         // serving loops: the single requests
	notes     map[string]float64 // loop-specific side numbers (offered and achieved rate, lateness)
	firstErr  error              // why the first failed operation failed, for the log
}

// fail counts one failed operation, keeping the first reason.
func (m *measurement) fail(err error) {
	m.failed++
	m.firstErr = cmp.Or(m.firstErr, err)
}

var errWrongResult = fmt.Errorf("result differs from the reference digest")

// opResult is one served request. Times count from the start of the
// loop; from is when latency starts counting — the due time on an open
// loop, the issue time on a closed one.
type opResult struct {
	req              request
	from, start, end time.Duration
	peak             int64
	batch            int
	err              error // nil when the request succeeded with the reference result
}

// issueFn sends one request through some serving surface, streaming
// the result into w, and returns the peak buffer and batch size the
// surface reported for it.
type issueFn func(ctx context.Context, r request, w io.Writer) (peak int64, batch int, err error)

// discipline is how drive offers load.
type discipline struct {
	open    bool          // issue each request at its due time, whatever is still in flight
	callers int           // closed loop: concurrent callers
	window  time.Duration // closed loop: stop issuing after this long (0: no deadline)
	limit   int           // stop after this many requests (0: no limit; an open loop needs one)
}

// cycle is the request sequence of the serving loops: the schedule, or
// the closed loops' cycle repeated.
func (e *env) cycle(i int) request { return e.reqs[i%len(e.reqs)] }

// dueBefore counts the scheduled requests due within the window.
func (e *env) dueBefore(window time.Duration) int {
	n := 0
	for n < len(e.reqs) && e.reqs[n].due < window {
		n++
	}
	return n
}

// drive issues requests under d and returns one result per request. On
// a closed loop the callers share one position in the sequence, so the
// requests issued are always a prefix of it.
func (e *env) drive(ctx context.Context, reqAt func(int) request, d discipline, issue issueFn, tr *tracer, parent int) []opResult {
	t0 := time.Now()
	do := func(r request, from time.Duration) opResult {
		var w digestWriter
		sp := tr.start(parent, "op")
		start := time.Since(t0)
		if !d.open {
			from = start
		}
		peak, batch, err := issue(ctx, r, &w)
		end := time.Since(t0)
		if err == nil && w.digest != e.refs[r.doc][r.query].dig {
			err = errWrongResult
		}
		if tr != nil {
			tr.finish(sp, map[string]int64{"doc": int64(r.doc), "query": int64(r.query), "batch": int64(batch), "bytes": w.n})
		}
		return opResult{req: r, from: from, start: start, end: end, peak: peak, batch: batch, err: err}
	}

	if d.open {
		ops := make([]opResult, d.limit)
		var wg sync.WaitGroup
		for i := range ops {
			r := reqAt(i)
			if wait := r.due - time.Since(t0); wait > 0 {
				time.Sleep(wait)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				ops[i] = do(r, r.due)
			}()
		}
		wg.Wait()
		return ops
	}

	var next atomic.Int64
	perCaller := make([][]opResult, d.callers)
	var wg sync.WaitGroup
	for c := range perCaller {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if d.limit > 0 && i >= d.limit {
					return
				}
				if d.window > 0 && time.Since(t0) >= d.window {
					return
				}
				perCaller[c] = append(perCaller[c], do(reqAt(i), 0))
			}
		}()
	}
	wg.Wait()
	var ops []opResult
	for _, p := range perCaller {
		ops = append(ops, p...)
	}
	return ops
}

// throughputGroups is how many equal groups a serving loop's completions
// are cut into, in completion order; throughput is the median of the
// groups' rates, so one stall moves one sample.
const throughputGroups = 20

// measureOps folds served requests into a measurement. With a window
// (the measured loops; a bare replay has none), throughput is taken per
// group of consecutive completions.
func (e *env) measureOps(ops []opResult, window time.Duration) measurement {
	m := measurement{ops: ops, attempted: int64(len(ops)), notes: map[string]float64{}}
	seen := make(map[[2]int]int64)
	var late []float64
	var done []opResult
	ops = slices.Clone(ops)
	slices.SortFunc(ops, func(a, b opResult) int { return cmp.Compare(a.end, b.end) })
	for _, op := range ops {
		if op.err != nil {
			m.fail(op.err)
			continue
		}
		done = append(done, op)
		m.lat = append(m.lat, float64(op.end-op.from)/1e6)
		late = append(late, float64(op.start-op.from)/1e6)
		key := [2]int{op.req.doc, op.req.query}
		seen[key] = max(seen[key], op.peak)
	}
	if window > 0 && len(done) >= throughputGroups {
		var from time.Duration
		for g := 0; g < throughputGroups; g++ {
			group := done[g*len(done)/throughputGroups : (g+1)*len(done)/throughputGroups]
			var mb float64
			for _, op := range group {
				mb += float64(len(e.docs[op.req.doc].data)) / 1e6
			}
			to := group[len(group)-1].end
			m.qps = append(m.qps, float64(len(group))/(to-from).Seconds())
			m.mbs = append(m.mbs, mb/(to-from).Seconds())
			from = to
		}
		m.notes["offered_qps"] = float64(len(ops)) / window.Seconds()
		m.notes["achieved_qps"] = float64(len(done)) / from.Seconds()
		m.notes["gen_late_p95_ms"] = quantile(sortedCopy(late), 0.95)
	}
	// peak_buffer_bytes of a serving workload: each (document, query)
	// pair of the mix counted once, at the largest peak a request for it
	// reported; a pair the window happened not to reach counts at its
	// solo peak, which is what the served ones report too.
	for d := range e.docs {
		for q := range e.queries {
			if p, ok := seen[[2]int{d, q}]; ok {
				m.peak += float64(p)
			} else {
				m.peak += float64(e.refs[d][q].peak)
			}
		}
	}
	return m
}

// run drives the workload's own loop for the window. A zero window
// means one pass (scan, stream); the serving loops need a positive one.
func (e *env) run(ctx context.Context, window time.Duration, tr *tracer) measurement {
	switch e.spec.loop {
	case loopScan:
		return e.scanLoop(ctx, window, tr)
	case loopStream:
		return e.streamLoop(ctx, window, tr)
	case loopOpen:
		ops := e.drive(ctx, e.cycle, discipline{open: true, limit: e.dueBefore(window)}, e.issue(), tr, 0)
		return e.measureOps(ops, window)
	default:
		ops := e.drive(ctx, e.cycle, discipline{callers: e.callers(), window: window}, e.issue(), tr, 0)
		return e.measureOps(ops, window)
	}
}

// issue is the surface the workload's own loop talks to.
func (e *env) issue() issueFn {
	if e.spec.loop == loopHTTP {
		return e.viaHTTP(e.tier, func(int) string { return e.tier.base })
	}
	return e.viaExecutor(e.ex)
}

func (e *env) viaExecutor(ex *flux.Executor) issueFn {
	return func(ctx context.Context, r request, w io.Writer) (int64, int, error) {
		res, err := ex.ExecuteContext(ctx, e.docs[r.doc].name, e.queries[r.query].text, w)
		return res.Stats.PeakBufferBytes, res.BatchSize, err
	}
}

// viaHTTP posts to the base URL chosen per document: the router's for
// every document, or each document's own worker.
func (e *env) viaHTTP(t *tier, base func(doc int) string) issueFn {
	return func(ctx context.Context, r request, w io.Writer) (int64, int, error) {
		return t.query(ctx, base(r.doc), e.docs[r.doc].name, e.queries[r.query].text, w)
	}
}

// scanLoop runs each query alone over the document, pass after pass,
// until the window is used up; at least one pass.
func (e *env) scanLoop(ctx context.Context, window time.Duration, tr *tracer) measurement {
	m := measurement{byQuery: make([][]float64, len(e.queries))}
	var peaks []float64
	doc := e.docs[0]
	passMB := float64(len(doc.data)) * float64(len(e.queries)) / 1e6
	t0 := time.Now()
	for {
		sp := tr.start(0, "pass")
		passStart := time.Now()
		var peak int64
		for qi, q := range e.queries {
			var w digestWriter
			op := tr.start(sp, "op")
			opStart := time.Now()
			st, err := q.q.RunContext(ctx, bytes.NewReader(doc.data), &w, flux.Options{})
			m.byQuery[qi] = append(m.byQuery[qi], float64(time.Since(opStart))/1e6)
			if tr != nil {
				tr.finish(op, map[string]int64{"query": int64(qi), "tokens": st.Tokens, "bytes": w.n})
			}
			m.attempted++
			if err == nil && w.digest != e.refs[0][qi].dig {
				err = errWrongResult
			}
			if err != nil {
				m.fail(fmt.Errorf("%s: %w", q.name, err))
			}
			peak += st.PeakBufferBytes
		}
		pass := time.Since(passStart).Seconds()
		tr.finish(sp, nil)
		m.lat = append(m.lat, pass*1e3/float64(len(e.queries)))
		m.mbs = append(m.mbs, passMB/pass)
		m.qps = append(m.qps, float64(len(e.queries))/pass)
		peaks = append(peaks, float64(peak))
		if time.Since(t0) >= window {
			break
		}
	}
	m.peak = median(peaks)
	return m
}

// streamChunk is the producer's write size.
const streamChunk = 32 << 10

// chunkSink is the push side of a scan: sax.ChunkScanner, stream.Ingest.
type chunkSink interface {
	io.Writer
	Close() error
	Abort(error) error
}

// push writes the document into dst chunk by chunk and ends the stream:
// cleanly, or by Abort when a write fails.
func push(dst chunkSink, data []byte) error {
	for off := 0; off < len(data); off += streamChunk {
		if _, err := dst.Write(data[off:min(off+streamChunk, len(data))]); err != nil {
			dst.Abort(err)
			return err
		}
	}
	return dst.Close()
}

// streamPass is one replay: a fresh hub, the given queries standing
// subscriptions, then the document pushed in chunks as fast as
// backpressure admits.
type streamPass struct {
	wall    time.Duration
	done    []time.Duration // per subscription, since the ingest started
	lag     []time.Duration // per subscription, from the end of the stream to its last result byte
	first   []time.Duration // per subscription, SubStats.FirstResult
	peak    int64
	dropped int64
	failed  int64
	err     error // the first failure
}

func (e *env) streamPass(ctx context.Context, cat *flux.Catalog, docIdx int, queries []int, tr *tracer, parent int) (p streamPass) {
	doc := e.docs[docIdx]
	hub := stream.NewHub(cat, stream.Options{})
	defer hub.Close()
	subs := make([]*stream.Subscription, len(queries))
	outs := make([]digestWriter, len(queries))
	for i, qi := range queries {
		sub, err := hub.Subscribe(ctx, doc.name, e.queries[qi].text, &outs[i], stream.PolicyBlock)
		if err != nil {
			p.err = fmt.Errorf("subscribing %s: %w", e.queries[qi].name, err)
			return p
		}
		subs[i] = sub
	}
	sp := tr.start(parent, "ingest")
	t0 := time.Now()
	ing, err := hub.StartIngest(ctx, doc.name)
	if err != nil {
		p.err = err
		return p
	}
	err = push(ing, doc.data)
	closed := time.Since(t0)
	p.done = make([]time.Duration, len(subs))
	var wg sync.WaitGroup
	for i, sub := range subs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-sub.Done()
			p.done[i] = time.Since(t0)
		}()
	}
	wg.Wait()
	p.wall = time.Since(t0)
	if tr != nil {
		tr.finish(sp, map[string]int64{"bytes": int64(len(doc.data)), "events": ing.Events(), "subscriptions": int64(len(subs))})
	}
	for i, sub := range subs {
		st := sub.Stats()
		p.lag = append(p.lag, p.done[i]-closed)
		p.first = append(p.first, st.FirstResult)
		p.peak += st.PeakBufferBytes
		p.dropped += st.DroppedBytes
		subErr := sub.Err()
		if subErr == nil && err == nil && outs[i].digest != e.refs[docIdx][queries[i]].dig {
			subErr = errWrongResult
		}
		if err != nil || subErr != nil {
			p.failed++
			if p.err == nil {
				p.err = fmt.Errorf("%s: %w", e.queries[queries[i]].name, cmp.Or(err, subErr))
			}
		}
	}
	return p
}

// streamLoop replays the document pass after pass until the window is
// used up; at least one pass. An operation is one subscription served.
func (e *env) streamLoop(ctx context.Context, window time.Duration, tr *tracer) measurement {
	m := measurement{byQuery: make([][]float64, len(e.queries))}
	var peaks []float64
	passMB := float64(len(e.docs[0].data)) * float64(len(e.queries)) / 1e6
	all := make([]int, len(e.queries))
	for i := range all {
		all[i] = i
	}
	t0 := time.Now()
	for {
		p := e.streamPass(ctx, e.cat, 0, all, tr, 0)
		m.attempted += int64(len(e.queries))
		m.firstErr = cmp.Or(m.firstErr, p.err)
		if p.done == nil { // the pass never got as far as streaming
			m.failed += int64(len(e.queries))
			break
		}
		m.failed += p.failed
		for i, d := range p.done {
			m.lat = append(m.lat, float64(d)/1e6)
			m.byQuery[i] = append(m.byQuery[i], float64(d)/1e6)
		}
		m.mbs = append(m.mbs, passMB/p.wall.Seconds())
		m.qps = append(m.qps, float64(len(e.queries))/p.wall.Seconds())
		peaks = append(peaks, float64(p.peak))
		if time.Since(t0) >= window {
			break
		}
	}
	m.peak = median(peaks)
	return m
}

// tier is an embedded shard tier: workers on loopback ports, a router
// in front of them on its own listener, and the keep-alive client the
// benchmark reaches both through.
type tier struct {
	workers []*shard.EmbeddedShard
	router  *shard.Router
	srv     *http.Server
	base    string   // the router's URL
	owner   []string // document index -> its worker's URL
	client  *http.Client
}

// newTier spreads the documents round-robin over two workers (one when
// there is a single document). Every option is the product's default.
func newTier(docs []document, dtdPath string) (_ *tier, err error) {
	shards := min(2, len(docs))
	placement := make(map[string][]int, len(docs))
	specs := make([]shard.DocSpec, len(docs))
	for i, d := range docs {
		placement[d.name] = []int{i % shards}
		specs[i] = shard.DocSpec{Name: d.name, DocPath: d.path, DTDPath: dtdPath}
	}
	m, err := shard.NewMapFromPlacement(placement, shards)
	if err != nil {
		return nil, err
	}
	t := &tier{}
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	if t.workers, err = shard.SpawnEmbedded(m, specs, shard.EmbeddedOptions{}); err != nil {
		return nil, err
	}
	for i := range docs {
		t.owner = append(t.owner, t.workers[i%shards].Addr)
	}
	if t.router, err = shard.NewRouter(shard.RouterOptions{Map: m, Shards: shard.Addrs(t.workers)}); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t.srv = &http.Server{Handler: t.router}
	go t.srv.Serve(ln)
	t.base = "http://" + ln.Addr().String()
	// At most one connection per processor to any one server: the load
	// is sized to the machine, and the connections are reused.
	conns := runtime.GOMAXPROCS(0)
	t.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
	return t, nil
}

func (t *tier) close() {
	if t.client != nil {
		t.client.CloseIdleConnections()
	}
	if t.srv != nil {
		t.srv.Close()
	}
	if t.router != nil {
		t.router.Close()
	}
	for _, w := range t.workers {
		w.Close()
	}
}

// query posts one query and streams the body into w; the peak buffer
// and batch size come back as trailers.
func (t *tier) query(ctx context.Context, base, doc, text string, w io.Writer) (int64, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/query?doc="+doc, strings.NewReader(text))
	if err != nil {
		return 0, 0, err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return 0, 0, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	if _, err := io.Copy(w, resp.Body); err != nil {
		return 0, 0, err
	}
	peak, _ := strconv.ParseInt(resp.Trailer.Get("X-Flux-Peak-Buffer-Bytes"), 10, 64)
	batch, _ := strconv.Atoi(resp.Trailer.Get("X-Flux-Batch-Size"))
	return peak, batch, nil
}
