package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"flux"
	"flux/internal/stream"
)

// Server is the HTTP serving surface of one worker process: the thin
// veneer over flux.Catalog (document registry, hot-swap, compiled-query
// cache) and flux.Executor (shared-scan batching) that cmd/fluxd exposes
// standalone and fluxrouter supervises as a shard. All serving policy —
// batching windows, cancellation, counters — lives in the library; the
// handlers only translate HTTP.
//
// Endpoints: POST /query?doc=, GET /docs, GET /stats (flux.ServerStats
// JSON), POST /ingest?doc= and POST /subscribe?doc= (live document
// streams and standing queries — see stream.go), GET /streamz,
// GET /healthz, GET /shardz (Identity JSON), and — when
// ServerOptions.Admin is set — the mutating surface live migration
// rides on: POST /admin/swap (hot-swap), POST /admin/install (register
// a shipped document copy), POST /admin/retire (unregister one), GET
// /admin/fetch (stream a document or its DTD out, the source side of a
// copy).
type Server struct {
	cat    *flux.Catalog
	ex     *flux.Executor
	hub    *stream.Hub
	routes *http.ServeMux

	id        int
	advertise string

	// spool is where /admin/install lands shipped document bytes; the
	// directory is created on the first install and files are deleted
	// when their document is retired.
	spool struct {
		sync.Mutex
		dir   string
		seq   int
		files map[string]string // installed doc -> spooled file path
	}
}

// ServerOptions configures the non-library parts of a worker's surface.
type ServerOptions struct {
	// Admin exposes the mutating /admin/* endpoints (hot-swap). They
	// accept server-side file paths, so they belong on trusted networks
	// only; without Admin every /admin/* request answers 403.
	Admin bool
	// ShardID is the shard this worker claims to be, reported at
	// /shardz so a router can verify it is talking to the member of the
	// topology it thinks it is. Negative means standalone (unasserted):
	// a router accepts such a worker at any position.
	ShardID int
	// Advertise is the address other processes should use to reach this
	// worker, reported at /shardz. Useful when the listen address (":0",
	// "0.0.0.0:...") is not routable as written.
	Advertise string
	// Stream overrides the streaming hub behind /ingest and /subscribe;
	// it must be built over this server's catalog. Nil means a hub with
	// default options is created.
	Stream *stream.Hub
}

// NewServer builds the HTTP surface over an executor (and its catalog).
// When the catalog holds exactly one document, /query accepts requests
// without ?doc=.
func NewServer(ex *flux.Executor, opt ServerOptions) *Server {
	s := &Server{
		cat:       ex.Catalog(),
		ex:        ex,
		routes:    http.NewServeMux(),
		id:        opt.ShardID,
		advertise: opt.Advertise,
	}
	if opt.ShardID < 0 {
		s.id = -1
	}
	s.hub = opt.Stream
	if s.hub == nil {
		s.hub = stream.NewHub(s.cat, stream.Options{})
	}
	s.spool.files = make(map[string]string)
	s.routes.HandleFunc("/query", s.handleQuery)
	s.routes.HandleFunc("/docs", s.handleDocs)
	s.routes.HandleFunc("/ingest", s.handleIngest)
	s.routes.HandleFunc("/subscribe", s.handleSubscribe)
	s.routes.HandleFunc("/streamz", s.handleStreamz)
	if opt.Admin {
		s.routes.HandleFunc("/admin/swap", s.handleSwap)
		s.routes.HandleFunc("/admin/install", s.handleInstall)
		s.routes.HandleFunc("/admin/retire", s.handleRetire)
		s.routes.HandleFunc("/admin/fetch", s.handleFetch)
	} else {
		s.routes.HandleFunc("/admin/", s.handleAdminDisabled)
	}
	s.routes.HandleFunc("/healthz", s.handleHealthz)
	s.routes.HandleFunc("/shardz", s.handleShardz)
	s.routes.HandleFunc("/stats", s.handleStats)
	return s
}

// Catalog returns the catalog this server serves from.
func (s *Server) Catalog() *flux.Catalog { return s.cat }

// Hub returns the streaming hub behind /ingest and /subscribe. Close it
// (stream.Hub.Close) when the server shuts down so open streams unwind.
func (s *Server) Hub() *stream.Hub { return s.hub }

// defaultDoc implements the fluxd rule against the live catalog:
// /query without ?doc= resolves to the single registered document —
// re-evaluated per request, because installs and retires change the
// set at runtime.
func (s *Server) defaultDoc() string {
	if docs := s.cat.Docs(); len(docs) == 1 {
		return docs[0]
	}
	return ""
}

// Executor returns the executor behind the /query endpoint.
func (s *Server) Executor() *flux.Executor { return s.ex }

// Identity reports what /shardz serves: who this worker claims to be
// and what it holds.
func (s *Server) Identity() Identity {
	return Identity{ShardID: s.id, Advertise: s.advertise, Docs: s.cat.Docs()}
}

// Identity is the /shardz payload: the worker's claimed place in a
// sharded topology and the documents it serves. A router health-checks
// this to catch a stale shard map — an address that now points at a
// different worker than the topology expects.
type Identity struct {
	// ShardID is the worker's claimed shard, -1 for standalone.
	ShardID int `json:"shard_id"`
	// Advertise is the address the worker wants to be reached at, if
	// configured.
	Advertise string `json:"advertise,omitempty"`
	// Docs are the registered document names, sorted.
	Docs []string `json:"docs"`
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.routes.ServeHTTP(w, r) }

// MaxQueryBytes bounds a /query request body; queries are small
// programs, not documents. The router enforces the same bound before
// proxying.
const MaxQueryBytes = 1 << 20

// ReadQueryBody reads a /query request body under the MaxQueryBytes
// bound, rejecting (rather than truncating) oversized queries — a
// silently truncated query would compile, and run, as a different
// query. The returned status is the HTTP code to answer on error.
func ReadQueryBody(r *http.Request) (body []byte, status int, err error) {
	body, err = io.ReadAll(io.LimitReader(r.Body, MaxQueryBytes+1))
	if err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("reading query: %w", err)
	}
	if len(body) > MaxQueryBytes {
		return nil, http.StatusRequestEntityTooLarge, fmt.Errorf("query exceeds the %d byte limit", MaxQueryBytes)
	}
	return body, 0, nil
}

// resolveDoc picks the target document for a request: the explicit
// ?doc= parameter, else defaultDoc() when exactly one document is
// registered. The default is a func so callers that compute it from
// live state (the worker's catalog changes under installs and retires)
// only pay for it when ?doc= is absent. The worker and the router share
// this rule (and its error text) so the two surfaces cannot drift
// apart.
func resolveDoc(r *http.Request, defaultDoc func() string) (string, error) {
	doc := r.URL.Query().Get("doc")
	if doc != "" {
		return doc, nil
	}
	if d := defaultDoc(); d != "" {
		return d, nil
	}
	return "", fmt.Errorf("multiple documents are registered; pick one with ?doc= (see /docs)")
}

// writeHealthz answers a liveness probe; shared by worker and router.
func writeHealthz(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleQuery streams the posted query's result from the document's
// shared scan. The request context rides into ExecuteContext, so a
// client that disconnects mid-result is detached from the scan at the
// next event batch while batch siblings keep streaming; a client that
// stays connected but stops reading fails its own write after
// writeStall and is detached the same way.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST the query text to /query", http.StatusMethodNotAllowed)
		return
	}
	doc, err := resolveDoc(r, s.defaultDoc)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	body, status, err := ReadQueryBody(r)
	if err != nil {
		http.Error(w, err.Error(), status)
		return
	}
	q, err := s.cat.Prepare(doc, string(body))
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, flux.ErrDocNotFound) {
			status = http.StatusNotFound
		}
		http.Error(w, "compiling query: "+err.Error(), status)
		return
	}

	w.Header().Set("Content-Type", "application/xml; charset=utf-8")
	w.Header().Set("Trailer", "X-Flux-Peak-Buffer-Bytes, X-Flux-Tokens, X-Flux-Batch-Size")
	rw := newResultWriter(w, false)
	defer rw.arm() // a fresh bound for net/http's final write (see resultWriter)
	res, err := s.ex.ExecuteQueryContext(r.Context(), doc, q, rw)
	if err != nil {
		if r.Context().Err() != nil {
			// The client is gone; there is no one to report to. The
			// executor has already detached the query from its batch.
			return
		}
		if rw.wrote() == 0 {
			// Nothing streamed yet; a clean error status is still possible.
			http.Error(w, "executing query: "+err.Error(), http.StatusInternalServerError)
			return
		}
		// The response is already partially written with a 200 header; a
		// clean chunked terminator would make the truncated body look
		// complete to any client that ignores trailers. Abort the
		// connection instead so the failure is visible at the transport.
		panic(http.ErrAbortHandler)
	}
	if rw.wrote() == 0 {
		// Force the header out even for empty results.
		w.WriteHeader(http.StatusOK)
	}
	w.Header().Set("X-Flux-Peak-Buffer-Bytes", fmt.Sprint(res.Stats.PeakBufferBytes))
	w.Header().Set("X-Flux-Tokens", fmt.Sprint(res.Stats.Tokens))
	w.Header().Set("X-Flux-Batch-Size", fmt.Sprint(res.BatchSize))
}

// handleDocs lists the registered documents.
func (s *Server) handleDocs(w http.ResponseWriter, r *http.Request) {
	var infos []flux.DocInfo
	for _, name := range s.cat.Docs() {
		if info, err := s.cat.Info(name); err == nil {
			infos = append(infos, info)
		}
	}
	writeJSON(w, infos)
}

// handleSwap atomically repoints a document at a new file. In-flight
// scans complete against the old file; later requests read the new one.
func (s *Server) handleSwap(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST /admin/swap?doc=name&path=/new/file.xml", http.StatusMethodNotAllowed)
		return
	}
	doc := r.URL.Query().Get("doc")
	path := r.URL.Query().Get("path")
	if doc == "" || path == "" {
		http.Error(w, "both doc and path parameters are required", http.StatusBadRequest)
		return
	}
	if err := s.cat.Swap(doc, path); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, flux.ErrDocNotFound) {
			status = http.StatusNotFound
		}
		http.Error(w, err.Error(), status)
		return
	}
	info, err := s.cat.Info(doc)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, info)
}

// maxDTDBytes bounds the DTD part of an /admin/install payload; DTDs
// are schemas, not documents.
const maxDTDBytes = 4 << 20

// handleInstall registers a document copy shipped in the request body —
// the receiving half of a live migration. The payload is
// multipart/form-data with a "doc" file part (the XML bytes, spooled to
// this worker's disk) and a "dtd" file part (the schema text). The
// document joins the catalog under ?doc= exactly as if it had been
// served since startup; installing a name that already exists answers
// 409, which tells a retried migration there is a leftover copy to
// retire and replace.
func (s *Server) handleInstall(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST multipart doc+dtd to /admin/install?doc=name", http.StatusMethodNotAllowed)
		return
	}
	doc := r.URL.Query().Get("doc")
	if doc == "" {
		http.Error(w, "the doc parameter is required", http.StatusBadRequest)
		return
	}
	mr, err := r.MultipartReader()
	if err != nil {
		http.Error(w, "install wants multipart/form-data: "+err.Error(), http.StatusBadRequest)
		return
	}
	var docPath, dtdText string
	var haveDTD, installed bool
	// Every failure after the doc part has been spooled must reclaim
	// the file, or interrupted installs would accumulate orphans in the
	// spool until the disk fills.
	defer func() {
		if !installed && docPath != "" {
			os.Remove(docPath)
		}
	}()
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			http.Error(w, "reading install payload: "+err.Error(), http.StatusBadRequest)
			return
		}
		switch part.FormName() {
		case "doc":
			if docPath != "" {
				// A second doc part would orphan the first spool file
				// (the cleanup defer only knows one path) — reject it.
				http.Error(w, "duplicate doc part", http.StatusBadRequest)
				return
			}
			docPath, err = s.spoolDoc(part)
			if err != nil {
				http.Error(w, "spooling document: "+err.Error(), http.StatusInternalServerError)
				return
			}
		case "dtd":
			if haveDTD {
				http.Error(w, "duplicate dtd part", http.StatusBadRequest)
				return
			}
			data, err := io.ReadAll(io.LimitReader(part, maxDTDBytes+1))
			if err != nil {
				http.Error(w, "reading dtd part: "+err.Error(), http.StatusBadRequest)
				return
			}
			if len(data) > maxDTDBytes {
				http.Error(w, fmt.Sprintf("dtd part exceeds the %d byte limit", maxDTDBytes), http.StatusRequestEntityTooLarge)
				return
			}
			dtdText, haveDTD = string(data), true
		}
	}
	if docPath == "" || !haveDTD {
		http.Error(w, "install needs both a doc and a dtd part", http.StatusBadRequest)
		return
	}
	if err := s.cat.Add(doc, docPath, dtdText); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, flux.ErrDocExists) {
			status = http.StatusConflict
		}
		http.Error(w, err.Error(), status)
		return
	}
	installed = true
	s.spool.Lock()
	s.spool.files[doc] = docPath
	s.spool.Unlock()
	info, err := s.cat.Info(doc)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, info)
}

// spoolDoc streams an install's document part to a fresh file under the
// server's spool directory, created on first use.
func (s *Server) spoolDoc(src io.Reader) (string, error) {
	s.spool.Lock()
	if s.spool.dir == "" {
		dir, err := os.MkdirTemp("", "flux-spool-")
		if err != nil {
			s.spool.Unlock()
			return "", err
		}
		s.spool.dir = dir
	}
	s.spool.seq++
	path := fmt.Sprintf("%s/install-%d.xml", s.spool.dir, s.spool.seq)
	s.spool.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	_, err = io.Copy(f, src)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return "", err
	}
	return path, nil
}

// handleRetire unregisters a document — the final step of a migration
// on the source worker. Scans already holding the file finish on their
// open handle (the same drain guarantee hot-swap relies on); later
// requests answer 404. A copy this worker spooled at install time is
// deleted from disk with it.
func (s *Server) handleRetire(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST /admin/retire?doc=name", http.StatusMethodNotAllowed)
		return
	}
	doc := r.URL.Query().Get("doc")
	if doc == "" {
		http.Error(w, "the doc parameter is required", http.StatusBadRequest)
		return
	}
	if err := s.cat.Remove(doc); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, flux.ErrDocNotFound) {
			status = http.StatusNotFound
		}
		http.Error(w, err.Error(), status)
		return
	}
	s.spool.Lock()
	if path, ok := s.spool.files[doc]; ok {
		delete(s.spool.files, doc)
		os.Remove(path)
	}
	s.spool.Unlock()
	writeJSON(w, map[string]string{"retired": doc})
}

// handleFetch streams a registered document's raw bytes (?part=doc, the
// default) or its exact DTD text (?part=dtd) — the source half of a
// migration copy. The document reader is taken through Catalog.Open, so
// a concurrent swap or retire cannot disturb the stream.
func (s *Server) handleFetch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET /admin/fetch?doc=name&part=doc|dtd", http.StatusMethodNotAllowed)
		return
	}
	doc := r.URL.Query().Get("doc")
	if doc == "" {
		http.Error(w, "the doc parameter is required", http.StatusBadRequest)
		return
	}
	switch part := r.URL.Query().Get("part"); part {
	case "", "doc":
		f, err := s.cat.Open(doc)
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, flux.ErrDocNotFound) {
				status = http.StatusNotFound
			}
			http.Error(w, err.Error(), status)
			return
		}
		defer f.Close()
		// Announce the exact size and abort the connection on a copy
		// failure: a fetch that breaks mid-stream must never read as a
		// complete (truncated) document to the installing side — it
		// would migrate corrupt bytes.
		fi, err := f.Stat()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/xml; charset=utf-8")
		w.Header().Set("Content-Length", fmt.Sprint(fi.Size()))
		if _, err := io.Copy(w, f); err != nil {
			panic(http.ErrAbortHandler)
		}
	case "dtd":
		text, err := s.cat.DTD(doc)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("Content-Length", fmt.Sprint(len(text)))
		if _, err := io.WriteString(w, text); err != nil {
			panic(http.ErrAbortHandler)
		}
	default:
		http.Error(w, fmt.Sprintf("unknown part %q: want doc or dtd", part), http.StatusBadRequest)
	}
}

// CleanupSpool deletes the server's spool directory — every document
// copy installed and not yet retired. Call it when the worker process
// is done serving; the catalog entries are not touched.
func (s *Server) CleanupSpool() {
	s.spool.Lock()
	defer s.spool.Unlock()
	if s.spool.dir != "" {
		os.RemoveAll(s.spool.dir)
		s.spool.dir = ""
		s.spool.files = make(map[string]string)
	}
}

// handleAdminDisabled answers /admin/* when the server runs without
// Admin: the mutating endpoints accept server-side file paths and are
// opt-in.
func (s *Server) handleAdminDisabled(w http.ResponseWriter, r *http.Request) {
	http.Error(w, "admin endpoints are disabled; start fluxd with -admin to enable hot-swap and migration", http.StatusForbidden)
}

// handleHealthz is the liveness probe.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeHealthz(w)
}

// handleShardz reports the worker's identity for topology checks.
func (s *Server) handleShardz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Identity())
}

// handleStats serves the typed process snapshot (flux.ServerStats); the
// schema is documented in README's fluxd section.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.ex.ServerStats())
}

// writeJSON renders v indented, the way operators curl it.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeStall bounds how long one write or flush of a result to an HTTP
// client may block. A query's output is written on its shared scan's
// goroutine (or, for a subscription, on a drain that the scan waits
// on once the subscription's ring is full), so a client that stops
// reading would otherwise park every query sharing that scan. After
// the bound the client's own write fails and the existing failure paths
// detach it alone. Only tests assign it.
var writeStall = 30 * time.Second

// resultWriter is the one writer a streamed result leaves through: a
// worker's /query and /subscribe responses and the router's proxy copy.
// It counts the bytes written, which decides error reporting (a clean
// error status is only possible before the first byte), flushes after
// every write when flush is set, and re-arms a writeStall deadline on
// the connection before each write and flush. The mutex serializes a
// subscription's drain goroutine against the handler goroutine's header
// commit: an http.ResponseWriter is not safe for concurrent use.
//
// The handler that makes one defers arm. net/http's final write after
// the handler returns (the buffered tail, the terminating chunk and the
// trailers) runs under the last deadline armed, and a result may idle
// far longer than writeStall before it ends — a standing query whose
// last match came early in a long ingest, or one that matched nothing —
// so that deadline may have passed long ago and would cut off a client
// that read every byte. net/http clears the deadline after the final
// write, so it never carries over to the next request on a kept-alive
// connection.
type resultWriter struct {
	mu    sync.Mutex
	w     http.ResponseWriter
	rc    *http.ResponseController
	flush bool
	n     int64
}

func newResultWriter(w http.ResponseWriter, flush bool) *resultWriter {
	return &resultWriter{w: w, rc: http.NewResponseController(w), flush: flush}
}

// Write implements io.Writer.
func (rw *resultWriter) Write(p []byte) (int, error) {
	rw.mu.Lock()
	defer rw.mu.Unlock()
	rw.arm()
	n, err := rw.w.Write(p)
	rw.n += int64(n)
	if err == nil && rw.flush {
		err = rw.rc.Flush()
	}
	return n, err
}

// Flush sends what is buffered, committing a 200 if nothing has been
// written yet.
func (rw *resultWriter) Flush() error {
	rw.mu.Lock()
	defer rw.mu.Unlock()
	rw.arm()
	return rw.rc.Flush()
}

// wrote reports the result bytes written so far.
func (rw *resultWriter) wrote() int64 {
	rw.mu.Lock()
	defer rw.mu.Unlock()
	return rw.n
}

// arm re-arms the write deadline. A writer without a connection (a
// test's ResponseRecorder) has no deadline to set.
func (rw *resultWriter) arm() {
	_ = rw.rc.SetWriteDeadline(time.Now().Add(writeStall))
}
