// Command fluxrouter is the routing front of the sharded serving tier:
// one process exposing the same HTTP surface as fluxd over a corpus
// partitioned across N shard workers. Each query is proxied to a live
// owner of its document (the least-loaded replica when a document is
// replicated), responses stream straight through — stats trailers
// included — and /stats merges every worker's counters into a rollup
// with per-shard breakdowns.
//
// Two ways to get a topology:
//
//	fluxrouter -spawn 4 -docroot corpus/           # 4 embedded in-process shards
//	fluxrouter -shards http://a:8700,http://b:8700 # external fluxd -shard-id workers
//
// Embedded mode partitions the docroot by consistent hash of each
// document name; external mode discovers each worker's documents from
// its /docs listing at startup (a document served by several workers is
// treated as replicated). Either way, a -shard-map file overrides
// placements:
//
//	# doc: shard[,shard...]
//	bib:  0
//	logs: 1,3        # replicated: router load-balances and fails over
//
// Flags: [-addr :8710] [-spawn N -docroot dir | -shards list]
// [-shard-map file] [-health-interval 2s] [-admin]
// [-rebalance-interval 0] [-rebalance-threshold 8] [-window 2ms]
// [-max-batch 16] [-max-resident-buffer 0] (the serving knobs apply to
// embedded shards only, and are validated at startup as fluxd's are).
//
// -rebalance-interval starts the autonomous control plane: every
// interval the router folds the per-(document, shard) query counts it
// observed into a decaying load signal and, when the hottest shard
// leads the coldest by more than -rebalance-threshold (with a cooldown
// between actions so placements cannot ping-pong), migrates the
// hottest document — or adds a replica of it when that document alone
// dominates its shard, so the burst fans out across copies. It needs
// -admin (the control plane rides the same worker install/retire/fetch
// machinery as /admin/migrate).
//
// Endpoints:
//
//	POST /query?doc=name   routed to an owning shard; body, status and
//	                       the X-Flux-* stats trailers stream through
//	                       unchanged, plus X-Flux-Shard naming the
//	                       worker that served it
//	GET  /docs             the union of the live shards' registered
//	                       documents
//	GET  /stats            merged statistics: {"rollup": ..., "per_shard":
//	                       {...}, "missing": [...]} — schema in README
//	GET  /healthz          the router's own liveness
//
// With -admin (the endpoints move documents and reveal deployment
// detail, so they are opt-in, exactly like fluxd's worker admin):
//
//	GET  /admin/shards     topology: current epoch, pending placement
//	                       changes (replica adds, moves, drops), and per
//	                       shard id, address, liveness, assigned
//	                       documents, live load, last error
//	POST /admin/migrate?doc=X&from=A&to=B
//	                       live migration: copy the document to shard B,
//	                       publish routing to B at the next topology
//	                       epoch, drain in-flight queries, retire the
//	                       copy on shard A — queries never fail and
//	                       results stay byte-identical throughout.
//	                       External workers must run fluxd -admin for
//	                       the copy endpoints.
//	GET  /admin/rebalancer the autonomous control plane's status:
//	                       configuration, tick/action/failure counters,
//	                       the last action and decision, cooldown state,
//	                       and the hottest entries of the decayed load
//	                       signal ({"enabled": false} without
//	                       -rebalance-interval)
//
// Shard failure is absorbed where possible: a worker that cannot be
// reached before its response starts is marked dead and the query
// retries on the next replica; mid-stream failures abort the client
// connection (the truncation must stay visible); /stats lists
// unreachable workers under "missing" instead of undercounting
// silently.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"flux"
	"flux/internal/shard"
)

func main() {
	var (
		addr      = flag.String("addr", ":8710", "listen address")
		spawn     = flag.Int("spawn", 0, "spawn this many embedded in-process shards over -docroot (0 = use -shards)")
		docroot   = flag.String("docroot", "", "directory of <name>.xml + <name>.dtd pairs to partition across embedded shards")
		shardsCSV = flag.String("shards", "", "comma-separated base URLs of external shard workers, in shard-id order")
		mapFile   = flag.String("shard-map", "", "optional placement override file (doc: shard[,shard...] per line)")
		healthInt = flag.Duration("health-interval", shard.DefaultHealthInterval, "background shard health-probe period")
		admin     = flag.Bool("admin", false, "expose the /admin/* endpoints (migrate, topology, rebalancer status); migrate moves documents between shards, so enable only on trusted networks")
		rebalInt  = flag.Duration("rebalance-interval", 0, "run the autonomous rebalancer with this tick period (0 = off; needs -admin)")
		rebalThr  = flag.Float64("rebalance-threshold", 8, "minimum per-window load imbalance between hottest and coldest shard before the rebalancer acts")

		window      = flag.Duration("window", 2*time.Millisecond, "embedded shards: how long the first query of a batch waits for companions while queries outnumber processors (a query that finds a processor free runs at once)")
		maxBatch    = flag.Int("max-batch", 16, "embedded shards: maximum queries per shared scan")
		maxResident = flag.Int64("max-resident-buffer", 0, "embedded shards: each shard's one memory bound, the total query buffer bytes of its admitted queries, each charged its plan's observed peak on the document (the static prediction until a run completes) (0 = unlimited)")
	)
	flag.Parse()

	var overrides string
	if *mapFile != "" {
		data, err := os.ReadFile(*mapFile)
		if err != nil {
			fatal(fmt.Errorf("-shard-map: %w", err))
		}
		overrides = string(data)
	}

	var (
		m     *shard.Map
		addrs []string
		err   error
	)
	switch {
	case *spawn > 0 && *shardsCSV != "":
		fatal(fmt.Errorf("-spawn and -shards are mutually exclusive"))
	case *spawn > 0:
		if *docroot == "" {
			fatal(fmt.Errorf("-spawn needs -docroot"))
		}
		specs, serr := shard.ScanDocroot(*docroot)
		if serr != nil {
			fatal(fmt.Errorf("-docroot: %w", serr))
		}
		names := make([]string, len(specs))
		for i, sp := range specs {
			names[i] = sp.Name
		}
		if m, err = shard.NewMap(names, *spawn); err != nil {
			fatal(err)
		}
		if overrides != "" {
			if err := m.ApplyOverrides(overrides); err != nil {
				fatal(fmt.Errorf("-shard-map: %w", err))
			}
		}
		if err := shard.CheckServingFlags(*window, *maxBatch, *maxResident); err != nil {
			fatal(err)
		}
		embedded, serr := shard.SpawnEmbedded(m, specs, shard.EmbeddedOptions{
			Executor: flux.ExecutorOptions{
				Window:   *window,
				MaxBatch: *maxBatch,
			},
			Catalog: flux.CatalogOptions{
				MaxResidentBufferBytes: *maxResident,
			},
			// Embedded workers inherit the router's admin stance: a
			// migration needs their install/retire/fetch endpoints.
			Admin: *admin,
		})
		if serr != nil {
			fatal(serr)
		}
		addrs = shard.Addrs(embedded)
		log.Printf("fluxrouter: spawned %d embedded shard(s) over %s", *spawn, *docroot)
	case *shardsCSV != "":
		for _, a := range strings.Split(*shardsCSV, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		if len(addrs) == 0 {
			fatal(fmt.Errorf("-shards lists no addresses"))
		}
		if m, err = discoverPlacement(addrs); err != nil {
			fatal(err)
		}
		if overrides != "" {
			if err := m.ApplyOverrides(overrides); err != nil {
				fatal(fmt.Errorf("-shard-map: %w", err))
			}
		}
	default:
		fatal(fmt.Errorf("no shards: give -spawn N -docroot dir, or -shards url,url,..."))
	}

	rt, err := shard.NewRouter(shard.RouterOptions{
		Map:            m,
		Shards:         addrs,
		HealthInterval: *healthInt,
		Admin:          *admin,
	})
	if err != nil {
		fatal(err)
	}
	defer rt.Close()
	adminNote := "admin disabled"
	if *admin {
		adminNote = "admin enabled (migrate live)"
	}
	if *rebalInt > 0 {
		if !*admin {
			fatal(fmt.Errorf("-rebalance-interval needs -admin: the control plane rides the worker install/retire/fetch endpoints"))
		}
		rb, err := shard.NewRebalancer(rt, shard.RebalancerOptions{
			Interval:  *rebalInt,
			Threshold: *rebalThr,
		})
		if err != nil {
			fatal(err)
		}
		defer rb.Close()
		adminNote += fmt.Sprintf(", rebalancer every %v (threshold %v)", *rebalInt, *rebalThr)
	} else if *rebalInt < 0 {
		fatal(fmt.Errorf("-rebalance-interval must be non-negative, got %v", *rebalInt))
	}
	log.Printf("fluxrouter: routing %d document(s) across %d shard(s) on %s, epoch %d, %s",
		len(rt.Topology().View().Docs()), rt.Topology().View().Shards(), *addr, rt.Topology().Epoch(), adminNote)
	if err := http.ListenAndServe(*addr, rt); err != nil {
		fatal(err)
	}
}

// discoverPlacement asks each external worker what it serves (/docs)
// and builds the placement from the answers: a document listed by
// several workers is replicated across them. A worker that cannot be
// reached contributes nothing — start the workers before the router,
// or pin placements with -shard-map; /admin/shards shows who answered.
func discoverPlacement(addrs []string) (*shard.Map, error) {
	owners := make(map[string][]int)
	reached := 0
	for id, a := range addrs {
		// One timeout per worker: a single black-holed address must not
		// consume the budget of every worker probed after it.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		c := shard.NewClient(a, nil)
		infos, err := c.Docs(ctx)
		cancel()
		if err != nil {
			log.Printf("fluxrouter: shard %d at %s unreachable at startup: %v", id, a, err)
			continue
		}
		reached++
		for _, info := range infos {
			owners[info.Name] = append(owners[info.Name], id)
		}
	}
	if reached == 0 {
		return nil, fmt.Errorf("no shard answered /docs at startup; is the tier up?")
	}
	if len(owners) == 0 {
		return nil, fmt.Errorf("the reachable shards serve no documents")
	}
	return shard.NewMapFromPlacement(owners, len(addrs))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fluxrouter:", err)
	os.Exit(1)
}
