// Command fluxd is a long-running query server over a catalog of XML
// documents: it accepts XQuery⁻ queries over HTTP, compiles them against
// each document's DTD (with a compiled-query cache), batches concurrent
// requests onto shared scans per document, and streams each result back.
// It is a thin HTTP veneer over flux.Catalog and flux.Executor, and it
// doubles as the shard worker of the sharded tier: started with
// -shard-id under cmd/fluxrouter, N fluxd processes serve one
// partitioned corpus behind a single routing endpoint.
//
// Usage:
//
//	fluxd -dtd schema.dtd -doc data.xml [flags]     # single document
//	fluxd -docroot corpus/ [flags]                  # every corpus/<name>.xml + <name>.dtd pair
//	fluxd -stream-doc feed=schema.dtd [flags]       # stream-backed document, fed via /ingest
//	fluxd -stream-doc feed=schema.dtd -tail feed=/path/to/fifo
//	                                                # ... or from a named pipe
//
// Flags: [-addr :8700] [-window 2ms] [-max-batch 16] [-attrs] [-query-cache 256]
// [-admin] [-max-resident-buffer 0] [-shard-id -1] [-advertise addr]
// [-stream-doc name=dtdpath ...] [-tail doc=path ...]
//
// Endpoints:
//
//	POST /query?doc=name   query text in the body; result streams back,
//	                       with X-Flux-Peak-Buffer-Bytes, X-Flux-Tokens
//	                       and X-Flux-Batch-Size arriving as HTTP
//	                       trailers. ?doc= may be omitted when exactly
//	                       one document is registered.
//	GET  /docs             registered documents (name, path, swap count)
//	POST /admin/swap?doc=name&path=/new/file.xml
//	                       atomic hot-swap: in-flight scans finish on the
//	                       old file, later requests read the new one.
//	                       Disabled unless fluxd runs with -admin: the
//	                       endpoint takes server-side file paths, so it
//	                       belongs on trusted networks only
//	POST /admin/install?doc=name
//	                       register a document copy shipped in the body
//	                       (multipart doc+dtd parts, spooled to disk) —
//	                       the receiving half of a fluxrouter live
//	                       migration. -admin gated like /admin/swap
//	GET  /admin/fetch?doc=name&part=doc|dtd
//	                       stream a registered document's raw bytes or
//	                       its DTD text out — the sending half of a
//	                       migration copy. -admin gated
//	POST /admin/retire?doc=name
//	                       unregister a document; in-flight scans finish
//	                       on their open handle, later requests 404.
//	                       -admin gated
//	POST /ingest?doc=name  feed a live document stream: the request body
//	                       is consumed incrementally as it arrives, so
//	                       the producer may hold the request open and
//	                       trickle the document in. Responds with a JSON
//	                       summary when the stream ends
//	POST /subscribe?doc=name[&policy=block|drop]
//	                       register the query in the body as a standing
//	                       subscription; results stream back as matching
//	                       subtrees complete, stats and any failure ride
//	                       in HTTP trailers when the stream ends
//	GET  /streamz          live ingests and parked subscriptions
//	GET  /stats            the typed flux.ServerStats snapshot:
//	                       per-document serving counters, compiled-query
//	                       cache counters, and query admission counters;
//	                       schema in README
//	GET  /shardz           worker identity: the -shard-id this process
//	                       asserts (-1 standalone), its -advertise
//	                       address, and its document names — what
//	                       fluxrouter health-checks to catch a stale
//	                       shard map
//	GET  /healthz          liveness probe
//
// A request that finds a processor free (the server holds no more
// requests than GOMAXPROCS) runs at once, on a scan of its own. Under
// load, concurrent requests for the same document that arrive within
// -window of each other (or up to -max-batch of them) execute in a
// single pass of that document; events are routed so each query is
// delivered only the subtrees its projected paths can match.
// -max-resident-buffer is the one memory bound: each query is charged
// the peak its plan buffered on the last completed run over the
// document (the static prediction before one), and every query and
// standing subscription queues for admission while the resident total
// would exceed it; a query joins a batch only once admitted. A client that disconnects mid-result is detached
// from its shared scan at the next event batch; sibling queries keep
// streaming. On a multicore host each live ingest evaluates its
// subscriptions on a worker pool, pipelined against its scan; shared
// scans of stored documents route inline, since concurrent batches
// already fill the cores.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"flux"
	"flux/internal/fsutil"
	"flux/internal/shard"
)

// streamDoc is one -stream-doc registration: a stream-backed document
// that exists only as a live ingest target, schema-checked against the
// DTD at dtdPath.
type streamDoc struct {
	name    string
	dtdPath string
}

// tailSpec is one -tail binding: feed the named document's stream from
// the file or named pipe at path.
type tailSpec struct {
	doc  string
	path string
}

// config is the validated server configuration.
type config struct {
	docs        []shard.DocSpec
	streamDocs  []streamDoc
	tails       []tailSpec
	window      time.Duration
	maxBatch    int
	attrs       bool
	cacheCap    int
	admin       bool   // expose the mutating /admin/* endpoints
	maxResident int64  // the memory gate: total resident charged buffer bytes (0 = unlimited)
	shardID     int    // shard identity asserted at /shardz (-1 = standalone)
	advertise   string // reachable address reported at /shardz
}

// buildConfig validates the flag values and resolves the document set.
// It is the startup gate: bad values produce errors here, not silent
// defaults at serving time.
func buildConfig(dtdFile, docFile, docroot string, window time.Duration, maxBatch, cacheCap int, attrs, admin bool, maxResident int64, id shardConfig, streams streamFlags) (config, error) {
	cfg := config{
		window: window, maxBatch: maxBatch, attrs: attrs, cacheCap: cacheCap, admin: admin,
		maxResident: maxResident,
		shardID:     id.shardID, advertise: id.advertise,
	}
	if err := shard.CheckServingFlags(window, maxBatch, maxResident); err != nil {
		return cfg, err
	}
	if id.shardID < -1 {
		return cfg, fmt.Errorf("-shard-id must be a shard index >= 0, or -1 for standalone, got %d", id.shardID)
	}
	if cacheCap < 0 {
		return cfg, fmt.Errorf("-query-cache must be non-negative, got %d", cacheCap)
	}
	if cacheCap == 0 {
		cfg.cacheCap = -1 // flag 0 = disabled; CatalogOptions negative = disabled
	}
	for _, v := range streams.streamDocs {
		name, dtdPath, ok := strings.Cut(v, "=")
		if !ok || name == "" || dtdPath == "" {
			return cfg, fmt.Errorf("-stream-doc wants name=dtdpath, got %q", v)
		}
		if err := fsutil.CheckRegularFile(dtdPath); err != nil {
			return cfg, fmt.Errorf("-stream-doc %s: %w", name, err)
		}
		cfg.streamDocs = append(cfg.streamDocs, streamDoc{name: name, dtdPath: dtdPath})
	}
	for _, v := range streams.tails {
		doc, path, ok := strings.Cut(v, "=")
		if !ok || doc == "" || path == "" {
			return cfg, fmt.Errorf("-tail wants doc=path, got %q", v)
		}
		cfg.tails = append(cfg.tails, tailSpec{doc: doc, path: path})
	}
	if (dtdFile == "") != (docFile == "") {
		return cfg, fmt.Errorf("-dtd and -doc must be given together")
	}
	if docFile == "" && docroot == "" && len(cfg.streamDocs) == 0 {
		return cfg, fmt.Errorf("no documents: give -dtd/-doc, -docroot, or -stream-doc")
	}
	if docFile != "" {
		if err := fsutil.CheckRegularFile(docFile); err != nil {
			return cfg, fmt.Errorf("-doc: %w", err)
		}
		if err := fsutil.CheckRegularFile(dtdFile); err != nil {
			return cfg, fmt.Errorf("-dtd: %w", err)
		}
		cfg.docs = append(cfg.docs, shard.DocSpec{Name: docName(docFile), DocPath: docFile, DTDPath: dtdFile})
	}
	if docroot != "" {
		specs, err := shard.ScanDocroot(docroot)
		if err != nil {
			return cfg, fmt.Errorf("-docroot: %w", err)
		}
		cfg.docs = append(cfg.docs, specs...)
	}
	seen := make(map[string]string)
	for _, d := range cfg.docs {
		if prev, dup := seen[d.Name]; dup {
			return cfg, fmt.Errorf("duplicate document name %q (%s and %s)", d.Name, prev, d.DocPath)
		}
		seen[d.Name] = d.DocPath
	}
	for _, d := range cfg.streamDocs {
		if prev, dup := seen[d.name]; dup {
			return cfg, fmt.Errorf("duplicate document name %q (%s and -stream-doc)", d.name, prev)
		}
		seen[d.name] = "-stream-doc " + d.dtdPath
	}
	for _, tl := range cfg.tails {
		if _, ok := seen[tl.doc]; !ok {
			return cfg, fmt.Errorf("-tail %s=%s: no such document registered", tl.doc, tl.path)
		}
	}
	return cfg, nil
}

// docName derives the registry name from a document path: the base name
// without its extension (matching shard.ScanDocroot's naming).
func docName(path string) string {
	base := filepath.Base(path)
	return strings.TrimSuffix(base, filepath.Ext(base))
}

// shardConfig bundles the shard-identity flag values.
type shardConfig struct {
	shardID   int
	advertise string
}

// streamFlags bundles the raw repeatable streaming flag values, parsed
// and validated by buildConfig.
type streamFlags struct {
	streamDocs []string // -stream-doc name=dtdpath, repeatable
	tails      []string // -tail doc=path, repeatable
}

// repeatFlag collects every occurrence of a repeatable string flag.
type repeatFlag []string

// String implements flag.Value.
func (f *repeatFlag) String() string { return strings.Join(*f, ",") }

// Set implements flag.Value.
func (f *repeatFlag) Set(v string) error {
	*f = append(*f, v)
	return nil
}

func main() {
	var (
		addr     = flag.String("addr", ":8700", "listen address")
		dtdFile  = flag.String("dtd", "", "path to the DTD for the single -doc document")
		docFile  = flag.String("doc", "", "path to a single XML document to serve queries over")
		docroot  = flag.String("docroot", "", "directory of <name>.xml + <name>.dtd pairs to serve")
		window   = flag.Duration("window", 2*time.Millisecond, "how long the first query of a batch waits for companions while queries outnumber processors (a query that finds a processor free runs at once)")
		maxBatch = flag.Int("max-batch", 16, "maximum queries per shared scan")
		cacheCap = flag.Int("query-cache", flux.DefaultQueryCacheCap, "compiled-query cache capacity (0 disables)")
		attrs    = flag.Bool("attrs", false, "convert attributes to subelements (XSAX)")
		admin    = flag.Bool("admin", false, "expose the mutating /admin/* endpoints (hot-swap); they accept server-side file paths, so enable only on trusted networks")

		maxResident = flag.Int64("max-resident-buffer", 0, "the one memory bound: total query buffer bytes of all admitted queries, each charged its plan's observed peak on the document (the static prediction until a run completes); a query that does not fit queues before it joins a batch (0 = unlimited)")

		shardID   = flag.Int("shard-id", -1, "shard index this worker asserts at /shardz, for fluxrouter supervision (-1 = standalone)")
		advertise = flag.String("advertise", "", "reachable base URL reported at /shardz, when the listen address is not routable as written")

		streamDocs repeatFlag
		tails      repeatFlag
	)
	flag.Var(&streamDocs, "stream-doc", "register a stream-backed document as name=dtdpath; it is served only by live ingestion (/ingest), never from a file (repeatable)")
	flag.Var(&tails, "tail", "feed the named document's stream from a file or named pipe, as doc=path; a pipe is re-opened after each complete document (repeatable)")
	flag.Parse()

	cfg, err := buildConfig(*dtdFile, *docFile, *docroot, *window, *maxBatch, *cacheCap, *attrs, *admin, *maxResident,
		shardConfig{shardID: *shardID, advertise: *advertise}, streamFlags{streamDocs: streamDocs, tails: tails})
	if err != nil {
		fatal(err)
	}
	s, err := newServer(cfg)
	if err != nil {
		fatal(err)
	}
	role := "standalone"
	if cfg.shardID >= 0 {
		role = fmt.Sprintf("shard %d", cfg.shardID)
	}
	log.Printf("fluxd: serving %d document(s) %v on %s (%s), batch window %s, max batch %d",
		len(cfg.docs)+len(cfg.streamDocs), s.Catalog().Docs(), *addr, role, cfg.window, cfg.maxBatch)
	for _, tl := range cfg.tails {
		go runTail(s, tl)
	}
	if err := http.ListenAndServe(*addr, s); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fluxd:", err)
	os.Exit(1)
}
