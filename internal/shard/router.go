// Package shard is the sharded serving tier: it scales the single-node
// fluxd surface out across N worker processes by partitioning a corpus
// of documents, routing each query to an owning worker, and merging the
// workers' statistics back into one coherent view.
//
// The pieces, bottom up:
//
//   - Map assigns each document to one or more shards — consistent
//     hash of the name by default, operator overrides (including
//     replication) via a shard-map file;
//   - Topology versions the map: epoch-stamped, copy-on-write placement
//     snapshots advanced by one placement change at a time per document
//     (Register/Publish/Release: a replica add, a move — an add that
//     drops its source — or a drop), so copies can come and go while
//     queries keep routing on consistent views;
//   - Server is one worker's HTTP surface (the same veneer cmd/fluxd
//     serves standalone), extended with a /shardz identity endpoint so
//     a router can verify topology, and — admin-gated — the
//     install/retire/fetch endpoints live migration rides on;
//   - Client is the typed HTTP client for one worker;
//   - Merge aggregates per-shard flux.ServerStats snapshots into a
//     cross-shard rollup with per-shard breakdowns;
//   - Router is the fluxrouter core: it serves the fluxd surface,
//     proxies each /query to the least-loaded live owner (streaming the
//     response through, trailers included), retries idempotent reads on
//     a dead shard, health-checks workers in the background, and — when
//     its admin surface is enabled — drives live migrations
//     (/admin/migrate) and reports topology (/admin/shards) and
//     control-plane state (/admin/rebalancer);
//   - Rebalancer is the autonomous control plane: a background router
//     loop that watches a decaying per-(doc, shard) load signal and,
//     with hysteresis, migrates the hottest document or adds a replica
//     of it so bursts fan out (see rebalance.go);
//   - SpawnEmbedded runs N in-process workers on loopback ports, which
//     makes single-machine multi-shard serving (fluxrouter -spawn) and
//     integration tests trivial.
package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flux"
)

// Router routes the fluxd HTTP surface across a set of shard workers:
// /query is proxied to a live owner of the target document (preferring
// the least loaded replica), /stats merges every worker's counters into
// a rollup with per-shard breakdowns, /docs aggregates the workers'
// listings, and /admin/shards reports the live topology.
//
// Failure handling: workers are health-checked in the background (and a
// transport failure during a proxy marks the worker dead on the spot);
// a /query whose chosen worker cannot be reached before any response
// arrives is retried on the document's next replica — the read is
// idempotent — while a failure after response bytes have streamed
// aborts the client connection, exactly like fluxd's own mid-stream
// failures.
//
// Placement is versioned: every request routes on one immutable
// Topology view, each proxied query is counted against the epoch it
// routed under, and the live placement protocol (MigrateDoc,
// AddReplica, DropReplica) uses those per-epoch counts as its drain
// barrier — a copy that lost routing is only retired once no query
// routed under an earlier epoch is still in flight.
type Router struct {
	topo     *Topology
	backends []*backend
	routes   *http.ServeMux
	admin    bool

	// inflight counts the proxied queries per topology epoch — the
	// migration drain barrier.
	inflight epochTracker

	// loads accumulates per-(doc, shard) query counts between
	// rebalancer ticks — the control plane's raw load signal.
	loads loadSignal

	// rebal is the attached control plane, nil until NewRebalancer.
	rebal atomic.Pointer[Rebalancer]

	// defaultDoc mirrors the fluxd rule: /query without ?doc= works
	// when exactly one document is mapped.
	defaultDoc string

	stop     chan struct{}
	stopOnce sync.Once
	probes   sync.WaitGroup
}

// RouterOptions configures a Router.
type RouterOptions struct {
	// Map assigns documents to shards; required. The router owns it
	// afterwards (it becomes epoch 1 of the router's topology) — apply
	// overrides before, not after.
	Map *Map
	// Shards are the worker base URLs indexed by shard id; the length
	// must equal Map.Shards().
	Shards []string
	// Client is the HTTP client used for proxying and probing; nil
	// means a dedicated default client.
	Client *http.Client
	// HealthInterval is the background probe period; 0 means
	// DefaultHealthInterval, negative disables background probing
	// (probes then happen only via proxy failures).
	HealthInterval time.Duration
	// Admin exposes the mutating /admin/migrate endpoint, the
	// /admin/shards topology report and the /admin/rebalancer status;
	// without it every /admin/* request answers 403, exactly like a
	// fluxd running without -admin. Migration additionally needs the
	// workers' own admin surfaces enabled.
	Admin bool
}

// DefaultHealthInterval is the background health-probe period when
// RouterOptions leaves HealthInterval zero.
const DefaultHealthInterval = 2 * time.Second

// probeTimeout bounds one worker probe; a worker that cannot answer
// /shardz and /stats in this long is treated as down.
const probeTimeout = 2 * time.Second

// backend is the router's view of one shard worker.
type backend struct {
	id     int
	addr   string
	client *Client

	alive     atomic.Bool
	inflight  atomic.Int64 // queries this router is currently proxying to it
	load      atomic.Int64 // last reported admission active + waiting
	lastCheck atomic.Int64 // unix nanos of the last probe
	lastErr   atomic.Value // string; "" when healthy
}

// markDead records a failure observed either by a probe or by a proxy
// attempt.
func (b *backend) markDead(err error) {
	b.alive.Store(false)
	b.lastErr.Store(err.Error())
}

// NewRouter validates the topology, probes every worker once
// synchronously (so the first request already has liveness to route
// on), and starts the background health loop. Close stops the loop.
func NewRouter(opt RouterOptions) (*Router, error) {
	if opt.Map == nil {
		return nil, errors.New("shard: router needs a map")
	}
	if len(opt.Shards) != opt.Map.Shards() {
		return nil, fmt.Errorf("shard: map wants %d shards, got %d addresses", opt.Map.Shards(), len(opt.Shards))
	}
	hc := opt.Client
	if hc == nil {
		hc = &http.Client{}
	}
	rt := &Router{
		topo:   NewTopology(opt.Map),
		routes: http.NewServeMux(),
		admin:  opt.Admin,
		stop:   make(chan struct{}),
	}
	for i, addr := range opt.Shards {
		b := &backend{id: i, addr: addr, client: NewClient(addr, hc)}
		b.lastErr.Store("")
		rt.backends = append(rt.backends, b)
	}
	if docs := opt.Map.Docs(); len(docs) == 1 {
		rt.defaultDoc = docs[0]
	}
	rt.routes.HandleFunc("/query", rt.handleQuery)
	rt.routes.HandleFunc("/docs", rt.handleDocs)
	rt.routes.HandleFunc("/stats", rt.handleStats)
	rt.routes.HandleFunc("/healthz", rt.handleHealthz)
	if opt.Admin {
		rt.routes.HandleFunc("/admin/shards", rt.handleShards)
		rt.routes.HandleFunc("/admin/migrate", rt.handleMigrate)
		rt.routes.HandleFunc("/admin/rebalancer", rt.handleRebalancer)
	} else {
		rt.routes.HandleFunc("/admin/", rt.handleAdminDisabled)
	}

	rt.probeAll()
	interval := opt.HealthInterval
	if interval == 0 {
		interval = DefaultHealthInterval
	}
	if interval > 0 {
		rt.probes.Add(1)
		go rt.healthLoop(interval)
	}
	return rt, nil
}

// Close stops the attached rebalancer (if any) and the background
// health loop. It does not touch the workers; embedded shards are
// closed by their own Close.
func (rt *Router) Close() {
	if rb := rt.rebal.Load(); rb != nil {
		rb.Close()
	}
	rt.stopOnce.Do(func() { close(rt.stop) })
	rt.probes.Wait()
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.routes.ServeHTTP(w, r) }

// healthLoop probes every worker each interval until Close.
func (rt *Router) healthLoop(interval time.Duration) {
	defer rt.probes.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.probeAll()
		}
	}
}

// probeAll probes every worker concurrently and waits for the sweep.
func (rt *Router) probeAll() {
	var wg sync.WaitGroup
	for _, b := range rt.backends {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			rt.probe(b)
		}(b)
	}
	wg.Wait()
}

// probe checks one worker: identity (is this still the shard the map
// says it is?) then stats (for the live load signal). Any failure, or
// an identity asserting a different shard id, marks the worker dead; a
// standalone worker (shard_id -1, a plain fluxd without -shard-id) is
// accepted at any position.
func (rt *Router) probe(b *backend) {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	b.lastCheck.Store(time.Now().UnixNano())
	id, err := b.client.Identity(ctx)
	if err != nil {
		b.markDead(err)
		return
	}
	if id.ShardID >= 0 && id.ShardID != b.id {
		b.markDead(fmt.Errorf("shard id mismatch: router expects %d, worker at %s asserts %d (stale shard map?)", b.id, b.addr, id.ShardID))
		return
	}
	st, err := b.client.Stats(ctx)
	if err != nil {
		b.markDead(err)
		return
	}
	b.load.Store(st.Admission.Active + st.Admission.Waiting)
	b.lastErr.Store("")
	b.alive.Store(true)
}

// Topology returns the router's versioned placement table, for
// inspection and direct protocol driving in tests.
func (rt *Router) Topology() *Topology { return rt.topo }

// candidates orders a document's owners under one topology view for a
// proxy attempt: live workers before dead ones (a dead worker is still
// tried last — the read is idempotent and the worker may have just
// recovered), less loaded before more (the worker-reported admission
// load plus the queries this router currently has in flight there), id
// as the tie break.
func (rt *Router) candidates(view *View, doc string) []*backend {
	owners := view.Owners(doc)
	cands := make([]*backend, 0, len(owners))
	for _, id := range owners {
		cands = append(cands, rt.backends[id])
	}
	type rank struct {
		dead  bool
		score int64
	}
	ranks := make(map[*backend]rank, len(cands))
	for _, b := range cands {
		ranks[b] = rank{dead: !b.alive.Load(), score: b.load.Load() + b.inflight.Load()}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		ri, rj := ranks[cands[i]], ranks[cands[j]]
		if ri.dead != rj.dead {
			return !ri.dead
		}
		if ri.score != rj.score {
			return ri.score < rj.score
		}
		return cands[i].id < cands[j].id
	})
	return cands
}

// handleQuery proxies a query to a live owner of the target document.
// Transport failures before a response commits are retried on the next
// replica; once response bytes are streaming, a failure aborts the
// connection (the truncation must be visible at the transport).
//
// The whole request routes on one topology view taken here, and is
// counted in flight against that view's epoch until the response has
// finished streaming — the accounting a migration's drain barrier waits
// on before retiring a source copy.
func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST the query text to /query", http.StatusMethodNotAllowed)
		return
	}
	doc, err := resolveDoc(r, func() string { return rt.defaultDoc })
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Load-then-enter must not race a concurrent cutover: if the epoch
	// advanced between taking the view and counting ourselves against
	// it, a drain barrier could have passed without seeing this request
	// and retired a source copy we are about to route to. Re-checking
	// the view after enter closes the window — either we still hold the
	// current epoch, or we retry on the new one.
	var view *View
	for {
		view = rt.topo.View()
		rt.inflight.enter(view.Epoch())
		if rt.topo.View() == view {
			break
		}
		rt.inflight.exit(view.Epoch())
	}
	defer rt.inflight.exit(view.Epoch())
	cands := rt.candidates(view, doc)
	if len(cands) == 0 {
		http.Error(w, fmt.Sprintf("unknown document %q (see /docs)", doc), http.StatusNotFound)
		return
	}
	body, status, err := ReadQueryBody(r)
	if err != nil {
		http.Error(w, err.Error(), status)
		return
	}
	var lastErr error
	for _, b := range cands {
		proxied := func() bool {
			b.inflight.Add(1)
			// Deferred so a mid-stream abort (stream panics with
			// http.ErrAbortHandler) cannot leak the in-flight count and
			// permanently skew the balancing score.
			defer b.inflight.Add(-1)
			resp, err := b.client.Query(r.Context(), doc, string(body))
			if err != nil {
				if r.Context().Err() != nil {
					// The client is gone; stop retrying on its behalf.
					return true
				}
				// The worker never answered: mark it dead and try the next
				// replica — nothing has been committed to the client yet.
				b.markDead(err)
				lastErr = err
				return false
			}
			// The worker accepted the scan: count it into the control
			// plane's load signal before streaming (a mid-stream abort
			// still cost the worker the scan). Without an attached
			// rebalancer nothing drains the signal, so nothing fills it.
			if rt.rebal.Load() != nil {
				rt.loads.observe(doc, b.id)
			}
			rt.stream(w, resp, b)
			return true
		}()
		if proxied {
			return
		}
	}
	http.Error(w, fmt.Sprintf("no live shard for document %q: %v", doc, lastErr), http.StatusBadGateway)
}

// stream copies a worker's response to the client: status, headers,
// body (flushed as it arrives, so mid-stream progress reaches the
// client), and the stats trailers after the body. A copy failure after
// the header has been written cannot be reported cleanly; the
// connection is aborted so the truncation is visible at the transport,
// and the worker is marked dead for the health loop to confirm.
func (rt *Router) stream(w http.ResponseWriter, resp *http.Response, b *backend) {
	defer resp.Body.Close()
	h := w.Header()
	for k, vv := range resp.Header {
		for _, v := range vv {
			h.Add(k, v)
		}
	}
	// The net/http client strips the Trailer announcement into
	// resp.Trailer (keys first, values after body EOF); re-announce so
	// our own transport forwards them.
	if len(resp.Trailer) > 0 {
		keys := make([]string, 0, len(resp.Trailer))
		for k := range resp.Trailer {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		h.Set("Trailer", strings.Join(keys, ", "))
	}
	h.Set("X-Flux-Shard", strconv.Itoa(b.id))
	w.WriteHeader(resp.StatusCode)
	if readErr, writeErr := copyResult(w, resp.Body); readErr != nil || writeErr != nil {
		// Only a worker-side read failure indicts the worker; a client
		// that disconnected mid-download (write failure) says nothing
		// about the shard's health, and with background probing disabled
		// a wrong markDead here would demote a healthy replica forever.
		if readErr != nil {
			b.markDead(readErr)
		}
		panic(http.ErrAbortHandler)
	}
	for k, vv := range resp.Trailer {
		for _, v := range vv {
			h.Add(k, v)
		}
	}
}

// copyResult copies src to w, flushing after every chunk so a streaming
// result streams through the router instead of pooling in its buffers;
// a client that stops reading fails the copy after writeStall. Source
// (worker) and sink (client) failures are reported separately — the
// caller treats them very differently.
func copyResult(w http.ResponseWriter, src io.Reader) (readErr, writeErr error) {
	rw := newResultWriter(w, true)
	// The handler returns right after the copy; re-arm for net/http's
	// final write, as resultWriter's doc comment explains.
	defer rw.arm()
	buf := make([]byte, 32<<10)
	for {
		r, rerr := src.Read(buf)
		if r > 0 {
			if _, werr := rw.Write(buf[:r]); werr != nil {
				return nil, werr
			}
		}
		if rerr == io.EOF {
			return nil, nil
		}
		if rerr != nil {
			return rerr, nil
		}
	}
}

// handleDocs aggregates the live workers' /docs listings, restricted to
// mapped documents and deduplicated by name (a replicated document
// appears once, from its lowest-id live owner).
func (rt *Router) handleDocs(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), probeTimeout)
	defer cancel()
	perShard := make([][]flux.DocInfo, len(rt.backends))
	var wg sync.WaitGroup
	for i, b := range rt.backends {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			if infos, err := b.client.Docs(ctx); err == nil {
				perShard[i] = infos
			}
		}(i, b)
	}
	wg.Wait()
	view := rt.topo.View()
	seen := make(map[string]bool)
	var out []flux.DocInfo
	for _, infos := range perShard {
		for _, info := range infos {
			if view.Owners(info.Name) == nil || seen[info.Name] {
				continue
			}
			seen[info.Name] = true
			out = append(out, info)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	writeJSON(w, out)
}

// handleStats fetches every worker's snapshot concurrently and serves
// the merged rollup with per-shard breakdowns (MergedStats; schema in
// README's fluxrouter section). Unreachable shards are listed in
// "missing" — their counters are absent from the rollup.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), probeTimeout)
	defer cancel()
	per, missing := rt.collectStats(ctx)
	merged := Merge(per)
	merged.Missing = missing
	writeJSON(w, merged)
}

// collectStats fetches every worker's /stats snapshot concurrently,
// returning the reachable snapshots keyed by decimal shard id and the
// sorted ids of the unreachable workers.
func (rt *Router) collectStats(ctx context.Context) (per map[string]flux.ServerStats, missing []string) {
	per = make(map[string]flux.ServerStats)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, b := range rt.backends {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			st, err := b.client.Stats(ctx)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				missing = append(missing, strconv.Itoa(b.id))
				return
			}
			per[strconv.Itoa(b.id)] = st
		}(b)
	}
	wg.Wait()
	sort.Strings(missing)
	return per, missing
}

// ShardStatus is one worker's row in the /admin/shards topology report.
type ShardStatus struct {
	// ID is the worker's shard id in the map.
	ID int `json:"id"`
	// Addr is the worker's base URL.
	Addr string `json:"addr"`
	// Alive reports the last probe's verdict.
	Alive bool `json:"alive"`
	// Docs are the documents the map assigns to this shard.
	Docs []string `json:"docs"`
	// Inflight is the number of queries this router is currently
	// proxying to the worker.
	Inflight int64 `json:"inflight"`
	// Load is the worker's last reported admission pressure (active
	// scans + waiting scans), the router's balancing signal.
	Load int64 `json:"load"`
	// LastCheck is when the worker was last probed.
	LastCheck time.Time `json:"last_check"`
	// LastError is the last probe or proxy failure, empty when healthy.
	LastError string `json:"last_error,omitempty"`
}

// TopologyStatus is the /admin/shards payload: the current placement
// epoch, the placement changes in progress, and one ShardStatus per
// worker.
type TopologyStatus struct {
	// Epoch is the current topology epoch; it advances by one per
	// published placement change (a replica add, a move or a drop).
	Epoch int64 `json:"epoch"`
	// Pending lists the in-progress placement changes, sorted by
	// document.
	Pending []MigrationStatus `json:"pending_migrations,omitempty"`
	// InflightByEpoch counts the queries currently in flight per
	// topology epoch (keys are decimal epochs). Entries under old epochs
	// are what a draining placement change is waiting on.
	InflightByEpoch map[string]int64 `json:"inflight_by_epoch,omitempty"`
	// Shards holds one row per worker, in shard-id order.
	Shards []ShardStatus `json:"shards"`
}

// handleShards reports the router's topology view: epoch, pending
// placement changes, and one ShardStatus per worker.
func (rt *Router) handleShards(w http.ResponseWriter, r *http.Request) {
	view := rt.topo.View()
	out := TopologyStatus{Epoch: view.Epoch(), Pending: rt.topo.Pending()}
	if counts := rt.inflight.snapshot(); len(counts) > 0 {
		out.InflightByEpoch = make(map[string]int64, len(counts))
		for e, n := range counts {
			out.InflightByEpoch[strconv.FormatInt(e, 10)] = n
		}
	}
	for _, b := range rt.backends {
		out.Shards = append(out.Shards, ShardStatus{
			ID:        b.id,
			Addr:      b.addr,
			Alive:     b.alive.Load(),
			Docs:      view.DocsFor(b.id),
			Inflight:  b.inflight.Load(),
			Load:      b.load.Load(),
			LastCheck: time.Unix(0, b.lastCheck.Load()),
			LastError: b.lastErr.Load().(string),
		})
	}
	writeJSON(w, out)
}

// handleAdminDisabled answers /admin/* when the router runs without
// Admin: topology admin moves documents and reveals deployment detail,
// so it is opt-in exactly like fluxd's worker admin surface.
func (rt *Router) handleAdminDisabled(w http.ResponseWriter, r *http.Request) {
	http.Error(w, "admin endpoints are disabled; start fluxrouter with -admin to enable topology admin", http.StatusForbidden)
}

// handleHealthz is the router's own liveness probe; shard liveness is
// /admin/shards.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeHealthz(w)
}

// --- embedded shards ------------------------------------------------------

// EmbeddedShard is one in-process shard worker: a Server listening on
// its own loopback port, indistinguishable over HTTP from an external
// fluxd -shard-id process. Embedded shards make single-machine
// multi-shard serving (fluxrouter -spawn N) and integration tests
// trivial — and killing one (Close) severs its connections mid-stream,
// which is exactly what the failure-path tests need.
type EmbeddedShard struct {
	// ID is the shard id the worker asserts at /shardz.
	ID int
	// Addr is the worker's base URL (http://127.0.0.1:port).
	Addr string

	worker *Server
	hs     *http.Server
}

// Worker returns the shard's serving surface, for direct inspection in
// tests and benchmarks.
func (s *EmbeddedShard) Worker() *Server { return s.worker }

// Close shuts the worker's HTTP server down immediately, severing
// in-flight connections — the "kill -9 a shard" failure mode — and
// deletes any document copies the worker spooled for installs.
func (s *EmbeddedShard) Close() error {
	err := s.hs.Close()
	s.worker.CleanupSpool()
	return err
}

// EmbeddedOptions configures the workers SpawnEmbedded builds.
type EmbeddedOptions struct {
	// Catalog configures each worker's catalog (cache, admission).
	Catalog flux.CatalogOptions
	// Executor configures each worker's batching executor.
	Executor flux.ExecutorOptions
	// Admin exposes the mutating /admin/* endpoints on each worker.
	Admin bool
}

// SpawnEmbedded starts one in-process worker per shard of m, each
// serving the documents the map assigns to it (specs supplies the
// files), each on its own loopback port. On any startup error the
// already-started workers are closed. The caller owns the returned
// shards and closes them when done; their addresses (in id order) are
// what RouterOptions.Shards wants.
func SpawnEmbedded(m *Map, specs []DocSpec, opt EmbeddedOptions) ([]*EmbeddedShard, error) {
	byName := make(map[string]DocSpec, len(specs))
	for _, sp := range specs {
		byName[sp.Name] = sp
	}
	var shards []*EmbeddedShard
	fail := func(err error) ([]*EmbeddedShard, error) {
		for _, s := range shards {
			s.Close()
		}
		return nil, err
	}
	for id := 0; id < m.Shards(); id++ {
		cat := flux.NewCatalog(opt.Catalog)
		for _, name := range m.DocsFor(id) {
			sp, ok := byName[name]
			if !ok {
				return fail(fmt.Errorf("shard: no DocSpec for mapped document %q", name))
			}
			dtdText, err := os.ReadFile(sp.DTDPath)
			if err != nil {
				return fail(fmt.Errorf("shard %d: DTD %s: %w", id, sp.DTDPath, err))
			}
			if err := cat.Add(sp.Name, sp.DocPath, string(dtdText)); err != nil {
				return fail(fmt.Errorf("shard %d: %w", id, err))
			}
		}
		ex, err := flux.NewExecutor(cat, opt.Executor)
		if err != nil {
			return fail(fmt.Errorf("shard %d: %w", id, err))
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(fmt.Errorf("shard %d: %w", id, err))
		}
		addr := "http://" + ln.Addr().String()
		worker := NewServer(ex, ServerOptions{Admin: opt.Admin, ShardID: id, Advertise: addr})
		hs := &http.Server{Handler: worker}
		go hs.Serve(ln)
		shards = append(shards, &EmbeddedShard{ID: id, Addr: addr, worker: worker, hs: hs})
	}
	return shards, nil
}

// Addrs returns the shards' base URLs in order — the RouterOptions.Shards
// value for a freshly spawned embedded tier.
func Addrs(shards []*EmbeddedShard) []string {
	out := make([]string, len(shards))
	for i, s := range shards {
		out[i] = s.Addr
	}
	return out
}
