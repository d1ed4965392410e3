// Package bench is the harness that regenerates the paper's Figure 4: it
// generates XMark-like documents at a sweep of sizes, runs the five
// benchmark queries through the FluX engine and the two baselines, and
// prints the table of execution time and peak memory.
package bench

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"flux"
	"flux/internal/shard"
	"flux/internal/stream"
	"flux/internal/xmark"
)

// Mode identifies an execution strategy column.
type Mode string

// The benchmark columns. FluXNoSchema is the ablation: the FluX runtime
// with scheduling disabled (everything behind on-first past(*), the
// Example 3.4 fallback), isolating the contribution of schema-based
// scheduling.
const (
	ModeFluX         Mode = "flux"
	ModeNaive        Mode = "naive"
	ModeProjection   Mode = "projection"
	ModeFluXNoSchema Mode = "flux-noschema"
	// ModeShared is the multi-query serving measurement: every query of
	// the sweep executed in one shared scan (flux.RunAll). Its row uses
	// the synthetic query name "shared"; Elapsed is the wall clock of
	// the whole batch and Buffer the summed per-query peaks — the
	// actual resident footprint of the batch.
	ModeShared Mode = "shared-scan"
	// ModeFanoutAll and ModeFanoutAutomaton measure event routing: a
	// query batch executed as one shared scan with every event fanned to
	// every query (all — flux.RunAll, the library's full-validation
	// path), or as one Executor batch routed by the batch's merged path
	// automaton (automaton, the serving path). The disjoint-path
	// xmark.FanoutQueries run under the synthetic query name "fanout" in
	// both modes; the 64-query shared-prefix set
	// (xmark.SharedPrefixQueries) runs under "fanout-wide" in the
	// automaton mode. Tokens is the summed events delivered across the
	// batch — the quantity selective routing shrinks, gated by
	// CheckFanout.
	ModeFanoutAll       Mode = "fanout-all"
	ModeFanoutAutomaton Mode = "fanout-automaton"
	// ModeServedLatency is the open-loop latency measurement of the
	// serving tier: requests are fired at a fixed arrival rate derived
	// from a warmup estimate — independent of completions, so queueing
	// shows up in the tail instead of being hidden by a closed loop —
	// and the row records p50/p99 request latency and achieved
	// queries/sec. Its rows use the synthetic query name "served".
	ModeServedLatency Mode = "served-latency"
	// ModeServedSingle and ModeServedSharded measure the serving tier
	// end to end over HTTP: the benchmark document registered under two
	// names ("x0", "x1") and the full query set executed against both,
	// through one embedded shard worker holding everything (single)
	// versus a fluxrouter over two embedded shards holding one document
	// each (sharded). Their rows use the synthetic query name "served";
	// Output is the summed response bytes, Buffer the summed
	// X-Flux-Peak-Buffer-Bytes trailers, Tokens the summed X-Flux-Tokens
	// trailers. CheckSharded gates that sharding changes none of them.
	ModeServedSingle  Mode = "served-single"
	ModeServedSharded Mode = "served-sharded"
	// ModeMigrateStatic and ModeMigrateLive measure live migration under
	// load: the same fixed query stream against a 2-shard router tier,
	// once over a static topology (static) and once while the document
	// migrates between the shards mid-stream (live). Their rows use the
	// synthetic query name "migrate"; Output/Buffer/Tokens sum the
	// stream's response bytes and stats trailers. CheckMigrate gates
	// that the migration run matches the static run byte for byte and
	// token for token — zero failed queries is implicit, since any
	// non-200 fails the whole run.
	ModeMigrateStatic Mode = "migrate-static"
	ModeMigrateLive   Mode = "migrate-live"
	// ModeStreamStatic and ModeStreamReplay measure the live-ingestion
	// subsystem against its equivalence guarantee: the sweep's queries
	// once as a static shared scan of the document (static), and once as
	// standing subscriptions over the same document replayed in
	// streamChunkBytes chunks through a stream.Hub (replay). Their rows
	// use the synthetic query name "stream"; Output and Buffer sum the
	// per-query output bytes and engine peaks (the replay row's peaks are
	// what admission charged each standing subscription for — the peak
	// resident bytes the snapshot gate holds the streaming path to), and
	// the replay row's P50/P99 are first-result latencies, the time a
	// standing query waited for its first byte. runStream verifies
	// per-query digest equality and first-result-before-end at run time;
	// CheckStreamEquivalence re-verifies output equality on the snapshot.
	ModeStreamStatic Mode = "stream-static"
	ModeStreamReplay Mode = "stream-replay"
	// ModeSkewedSingle and ModeSkewedConverge measure the autonomous
	// rebalancer's payoff under a skewed workload: a hot document takes
	// every request while a cold one sits idle, workers serving one
	// request at a time with a fixed service-time floor (the emulated
	// per-node capacity — ServerOptions.ServiceSlots).
	// The single row serves the burst from one worker owning both
	// documents; the converge row starts the hot document on one shard
	// of a 2-shard tier, lets the rebalancer observe the burst and add a
	// replica on its own, then times the same burst fanning out across
	// both copies. Their rows use the synthetic query name "skewed";
	// CheckSkewedConverge gates that the converged tier beats the single
	// node on wall clock — the whole point of replica fan-out.
	ModeSkewedSingle   Mode = "skewed-single"
	ModeSkewedConverge Mode = "skewed-converge"
)

// SharedQueryName is the Row.Query value of ModeShared rows.
const SharedQueryName = "shared"

// FanoutQueryName is the Row.Query value of fan-out rows over the
// disjoint-path xmark.FanoutQueries.
const FanoutQueryName = "fanout"

// FanoutWideQueryName is the Row.Query value of fan-out rows over the
// 64-query shared-prefix set (xmark.SharedPrefixQueries) — the
// batch shape where shared-prefix dispatch matters most.
const FanoutWideQueryName = "fanout-wide"

// fanoutWideQueries is how many shared-prefix queries the fanout-wide
// rows batch.
const fanoutWideQueries = 64

// ServedQueryName is the Row.Query value of the HTTP serving-tier rows
// (ModeServedSingle / ModeServedSharded).
const ServedQueryName = "served"

// MigrateQueryName is the Row.Query value of the migration-under-load
// rows (ModeMigrateStatic / ModeMigrateLive).
const MigrateQueryName = "migrate"

// StreamQueryName is the Row.Query value of the streaming-ingestion
// rows (ModeStreamStatic / ModeStreamReplay).
const StreamQueryName = "stream"

// SkewedQueryName is the Row.Query value of the skewed-workload
// rebalancing rows (ModeSkewedSingle / ModeSkewedConverge).
const SkewedQueryName = "skewed"

// AllModes lists the standard Figure 4 columns (FluX, Galax stand-in,
// AnonX stand-in).
var AllModes = []Mode{ModeFluX, ModeNaive, ModeProjection}

// Config selects what to run.
type Config struct {
	// SizesMB are the document sizes to sweep (the paper uses 5, 10, 50,
	// 100).
	SizesMB []int
	// Queries restricts the query set (default: all of Figure 4).
	Queries []string
	// Modes restricts the engine columns (default AllModes).
	Modes []Mode
	// Seed feeds the data generator.
	Seed int64
	// MaxBaselineMB skips the in-memory baselines above this document
	// size, reproducing the paper's "- / >500MB" entries without
	// thrashing; 0 means no limit.
	MaxBaselineMB int
	// WorkDir holds the generated documents; defaults to a temp dir.
	WorkDir string
	// Progress, when non-nil, receives one line per completed cell.
	Progress io.Writer
	// SharedScan adds one ModeShared row per size: all queries of the
	// sweep in a single shared pass, the serving-path measurement the
	// perf trajectory tracks.
	SharedScan bool
	// Fanout adds the event-routing rows per size: the disjoint-path
	// FanoutQueries as one Executor batch in all three routing modes
	// (all/selective/automaton), plus the 64-query shared-prefix set in
	// the selective, automaton, and parallel modes (query name
	// "fanout-wide"; all-fanout of 64 near-whole-document queries would
	// dominate the sweep's wall clock without informing any invariant).
	Fanout bool
	// Sharded adds one ModeServedSingle and one ModeServedSharded row
	// per size: the sweep's queries over two document registrations,
	// served over HTTP by one worker versus a router over two shards.
	Sharded bool
	// Migrate adds one ModeMigrateStatic and one ModeMigrateLive row
	// per size: a fixed query stream through a 2-shard router, without
	// and with a live document migration racing the stream.
	Migrate bool
	// Percentiles adds one ModeServedLatency row per size: open-loop
	// request latency percentiles against a single embedded worker.
	Percentiles bool
	// Stream adds one ModeStreamStatic and one ModeStreamReplay row per
	// size: the sweep's queries as a static shared scan versus standing
	// subscriptions over the document replayed in chunks through a
	// streaming hub.
	Stream bool
	// Skewed adds one ModeSkewedSingle and one ModeSkewedConverge row
	// per size: a hot-document burst against one capacity-capped worker,
	// versus the same burst against a 2-shard tier after the autonomous
	// rebalancer replicated the hot document on its own.
	Skewed bool
}

// Row is one table cell: a (query, size, mode) measurement.
type Row struct {
	Query   string
	SizeMB  int
	Bytes   int64 // actual document size
	Mode    Mode
	Elapsed time.Duration
	Buffer  int64 // peak buffered/materialized bytes
	Output  int64
	Tokens  int64 // events delivered to queries (fan-out rows)
	Skipped bool  // baseline skipped at this size

	// Latency percentiles and throughput, set by ModeServedLatency rows
	// (zero elsewhere).
	P50 time.Duration
	P99 time.Duration
	QPS float64
}

// Run executes the configured sweep.
func Run(cfg Config) ([]Row, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation: a done ctx (an interrupted
// fluxbench, a CI timeout) stops the sweep mid-document instead of
// finishing the remaining cells.
func RunContext(ctx context.Context, cfg Config) ([]Row, error) {
	if len(cfg.SizesMB) == 0 {
		cfg.SizesMB = []int{1, 2, 5}
	}
	if len(cfg.Queries) == 0 {
		cfg.Queries = xmark.QueryNames
	}
	if len(cfg.Modes) == 0 {
		cfg.Modes = AllModes
	}
	workDir := cfg.WorkDir
	if workDir == "" {
		d, err := os.MkdirTemp("", "fluxbench")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(d)
		workDir = d
	}

	var rows []Row
	for _, sizeMB := range cfg.SizesMB {
		path, docBytes, err := EnsureDocument(workDir, sizeMB, cfg.Seed)
		if err != nil {
			return nil, err
		}
		for _, qname := range cfg.Queries {
			queryText, ok := xmark.Queries[qname]
			if !ok {
				return nil, fmt.Errorf("bench: unknown query %q", qname)
			}
			for _, mode := range cfg.Modes {
				row := Row{Query: qname, SizeMB: sizeMB, Bytes: docBytes, Mode: mode}
				if mode != ModeFluX && mode != ModeFluXNoSchema &&
					cfg.MaxBaselineMB > 0 && sizeMB > cfg.MaxBaselineMB {
					row.Skipped = true
					rows = append(rows, row)
					continue
				}
				// Min-of-N like the shared-scan row: single-shot per-query
				// wall times are too noisy to gate the flux-fastest
				// invariant on (CheckFluxFastest).
				for rep := 0; rep < fig4Repeats; rep++ {
					st, elapsed, err := runOne(ctx, queryText, path, mode)
					if err != nil {
						return nil, fmt.Errorf("bench: %s %dMB %s: %w", qname, sizeMB, mode, err)
					}
					if rep == 0 || elapsed < row.Elapsed {
						row.Elapsed = elapsed
					}
					if rep == 0 {
						row.Buffer = st.PeakBufferBytes
						row.Output = st.OutputBytes
					}
				}
				rows = append(rows, row)
				if cfg.Progress != nil {
					fmt.Fprintf(cfg.Progress, "%-4s %4dMB %-13s %10.2fs %12s buffered\n",
						qname, sizeMB, mode, row.Elapsed.Seconds(), FormatBytes(row.Buffer))
				}
			}
		}
		if cfg.SharedScan {
			texts := make([]string, len(cfg.Queries))
			for i, qname := range cfg.Queries {
				texts[i] = xmark.Queries[qname]
			}
			row, err := runShared(ctx, Row{Query: SharedQueryName, SizeMB: sizeMB, Bytes: docBytes, Mode: ModeShared}, texts, path)
			if err != nil {
				return nil, fmt.Errorf("bench: shared %dMB: %w", sizeMB, err)
			}
			rows = append(rows, row)
			if cfg.Progress != nil {
				fmt.Fprintf(cfg.Progress, "%-4s %4dMB %-13s %10.2fs %12s buffered\n",
					row.Query, sizeMB, row.Mode, row.Elapsed.Seconds(), FormatBytes(row.Buffer))
			}
		}
		if cfg.Fanout {
			fanoutSets := []struct {
				qname   string
				queries []string
				modes   []Mode
			}{
				{FanoutQueryName, xmark.FanoutQueries,
					[]Mode{ModeFanoutAll, ModeFanoutAutomaton}},
				{FanoutWideQueryName, xmark.SharedPrefixQueries(fanoutWideQueries),
					[]Mode{ModeFanoutAutomaton}},
			}
			for _, set := range fanoutSets {
				for _, mode := range set.modes {
					row, err := runFanout(ctx, path, sizeMB, docBytes, set.qname, set.queries, mode)
					if err != nil {
						return nil, fmt.Errorf("bench: %s %dMB: %w", set.qname, sizeMB, err)
					}
					rows = append(rows, row)
					if cfg.Progress != nil {
						fmt.Fprintf(cfg.Progress, "%-4s %4dMB %-16s %10.2fs %12d events delivered\n",
							row.Query, sizeMB, row.Mode, row.Elapsed.Seconds(), row.Tokens)
					}
				}
			}
		}
		if cfg.Sharded {
			for _, sharded := range []bool{false, true} {
				row, err := runServed(ctx, workDir, path, sizeMB, docBytes, cfg.Queries, sharded)
				if err != nil {
					return nil, fmt.Errorf("bench: served %dMB: %w", sizeMB, err)
				}
				rows = append(rows, row)
				if cfg.Progress != nil {
					fmt.Fprintf(cfg.Progress, "%-4s %4dMB %-16s %10.2fs %12s output\n",
						row.Query, sizeMB, row.Mode, row.Elapsed.Seconds(), FormatBytes(row.Output))
				}
			}
		}
		if cfg.Percentiles {
			row, err := runPercentiles(ctx, workDir, path, sizeMB, docBytes, cfg.Queries)
			if err != nil {
				return nil, fmt.Errorf("bench: percentiles %dMB: %w", sizeMB, err)
			}
			rows = append(rows, row)
			if cfg.Progress != nil {
				fmt.Fprintf(cfg.Progress, "%-4s %4dMB %-16s p50 %8.2fms p99 %8.2fms %8.1f qps\n",
					row.Query, sizeMB, row.Mode, float64(row.P50.Microseconds())/1e3,
					float64(row.P99.Microseconds())/1e3, row.QPS)
			}
		}
		if cfg.Migrate {
			for _, live := range []bool{false, true} {
				row, err := runMigrate(ctx, workDir, path, sizeMB, docBytes, cfg.Queries, live)
				if err != nil {
					return nil, fmt.Errorf("bench: migrate %dMB: %w", sizeMB, err)
				}
				rows = append(rows, row)
				if cfg.Progress != nil {
					fmt.Fprintf(cfg.Progress, "%-4s %4dMB %-16s %10.2fs %12s output\n",
						row.Query, sizeMB, row.Mode, row.Elapsed.Seconds(), FormatBytes(row.Output))
				}
			}
		}
		if cfg.Skewed {
			for _, converge := range []bool{false, true} {
				row, err := runSkewed(ctx, workDir, path, sizeMB, docBytes, cfg.Queries, converge)
				if err != nil {
					return nil, fmt.Errorf("bench: skewed %dMB: %w", sizeMB, err)
				}
				rows = append(rows, row)
				if cfg.Progress != nil {
					fmt.Fprintf(cfg.Progress, "%-4s %4dMB %-16s %10.2fs %12s output\n",
						row.Query, sizeMB, row.Mode, row.Elapsed.Seconds(), FormatBytes(row.Output))
				}
			}
		}
		if cfg.Stream {
			srows, err := runStream(ctx, path, sizeMB, docBytes, cfg.Queries)
			if err != nil {
				return nil, fmt.Errorf("bench: stream %dMB: %w", sizeMB, err)
			}
			rows = append(rows, srows...)
			if cfg.Progress != nil {
				for _, row := range srows {
					fmt.Fprintf(cfg.Progress, "%-4s %4dMB %-16s %10.2fs %12s buffered\n",
						row.Query, sizeMB, row.Mode, row.Elapsed.Seconds(), FormatBytes(row.Buffer))
				}
			}
		}
	}
	return rows, nil
}

// streamChunkBytes is the replay's write granularity: small enough that
// every benchmark document crosses many chunk boundaries mid-token,
// exercising the scanner's chunk tolerance, without making Write-call
// overhead the measurement.
const streamChunkBytes = 32 << 10

// runStream measures the streaming-ingestion subsystem against its own
// guarantee and returns both rows of the comparison. The static row
// runs the query set as one shared scan of the document, hashing each
// query's output. The replay row opens the same queries as standing
// subscriptions on a stream.Hub, replays the document in
// streamChunkBytes chunks through an ingest, and records the summed
// subscription stats: Output/Buffer/Tokens, plus first-result latencies
// as P50/P99 — the time a standing query waited between Subscribe and
// its first delivered byte. Two invariants are enforced here rather
// than left to the snapshot gate: every query's streamed output must
// hash identically to its static output, and at least one subscription
// must receive its first result before the stream ends — results flow
// as matching subtrees complete, not at end of document.
func runStream(ctx context.Context, docPath string, sizeMB int, docBytes int64, qnames []string) ([]Row, error) {
	staticRow := Row{Query: StreamQueryName, SizeMB: sizeMB, Bytes: docBytes, Mode: ModeStreamStatic}
	replayRow := Row{Query: StreamQueryName, SizeMB: sizeMB, Bytes: docBytes, Mode: ModeStreamReplay}

	queries := make([]*flux.Query, len(qnames))
	staticSums := make([]hash.Hash, len(qnames))
	ws := make([]io.Writer, len(qnames))
	for i, qname := range qnames {
		q, err := flux.Prepare(xmark.Queries[qname], xmark.DTD)
		if err != nil {
			return nil, err
		}
		queries[i] = q
		staticSums[i] = sha256.New()
		ws[i] = staticSums[i]
	}
	f, err := os.Open(docPath)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	results, err := flux.RunAllContext(ctx, queries, f, flux.Options{}, ws...)
	staticRow.Elapsed = time.Since(start)
	f.Close()
	if err != nil {
		return nil, err
	}
	for _, r := range results {
		if r.Err != nil {
			return nil, r.Err
		}
		staticRow.Buffer += r.Stats.PeakBufferBytes
		staticRow.Output += r.Stats.OutputBytes
		staticRow.Tokens += r.Stats.Tokens
	}

	cat := flux.NewCatalog(flux.CatalogOptions{})
	if err := cat.AddStream("s0", xmark.DTD); err != nil {
		return nil, err
	}
	hub := stream.NewHub(cat, stream.Options{})
	defer hub.Close()
	subs := make([]*stream.Subscription, len(qnames))
	subStarts := make([]time.Time, len(qnames))
	replaySums := make([]hash.Hash, len(qnames))
	for i, qname := range qnames {
		replaySums[i] = sha256.New()
		subStarts[i] = time.Now()
		sub, err := hub.Subscribe(ctx, "s0", xmark.Queries[qname], replaySums[i], stream.PolicyBlock)
		if err != nil {
			return nil, err
		}
		subs[i] = sub
	}

	ing, err := hub.StartIngest(ctx, "s0")
	if err != nil {
		return nil, err
	}
	f, err = os.Open(docPath)
	if err != nil {
		ing.Abort(err)
		return nil, err
	}
	start = time.Now()
	_, err = io.CopyBuffer(ing, f, make([]byte, streamChunkBytes))
	f.Close()
	if err != nil {
		ing.Abort(err)
		return nil, err
	}
	if err := ing.Close(); err != nil {
		return nil, err
	}
	streamEnd := time.Now()
	replayRow.Elapsed = streamEnd.Sub(start)

	var lats []time.Duration
	early := 0
	for i, sub := range subs {
		<-sub.Done()
		if err := sub.Err(); err != nil {
			return nil, fmt.Errorf("stream %s: %w", qnames[i], err)
		}
		st := sub.Stats()
		replayRow.Output += st.OutputBytes
		replayRow.Buffer += st.PeakBufferBytes
		replayRow.Tokens += st.Tokens
		if st.FirstResult > 0 {
			lats = append(lats, st.FirstResult)
			if subStarts[i].Add(st.FirstResult).Before(streamEnd) {
				early++
			}
		}
		// Done has closed, so the drain goroutine's writes to the hash
		// are complete and reading the sum is race-free.
		if !bytes.Equal(replaySums[i].Sum(nil), staticSums[i].Sum(nil)) {
			return nil, fmt.Errorf("stream %s: streamed output differs from static serving", qnames[i])
		}
	}
	if early == 0 {
		return nil, fmt.Errorf("stream: no subscription received a result before end of stream")
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	replayRow.P50 = lats[len(lats)/2]
	replayRow.P99 = lats[min(len(lats)-1, len(lats)*99/100)]
	return []Row{staticRow, replayRow}, nil
}

// migrateWaves is how many waves of the query set the migration rows
// stream; the live row's migration races the middle wave.
const migrateWaves = 3

// runMigrate measures live migration under load: document "m0" starts
// on shard 0 of a 2-shard router tier, a fixed stream of migrateWaves
// waves of the query set runs against it, and in live mode a migration
// to shard 1 is fired concurrently with the second wave. Every request
// must succeed; Output/Buffer/Tokens sum all waves' bodies and stats
// trailers and must match the static run exactly (CheckMigrate gates
// this in CI) — migration must be invisible to queries.
func runMigrate(ctx context.Context, workDir, docPath string, sizeMB int, docBytes int64, qnames []string, live bool) (Row, error) {
	mode := ModeMigrateStatic
	if live {
		mode = ModeMigrateLive
	}
	row := Row{Query: MigrateQueryName, SizeMB: sizeMB, Bytes: docBytes, Mode: mode}

	dtdPath := filepath.Join(workDir, "xmark.dtd")
	if err := os.WriteFile(dtdPath, []byte(xmark.DTD), 0o644); err != nil {
		return row, err
	}
	m, err := shard.NewMapFromPlacement(map[string][]int{"m0": {0}}, 2)
	if err != nil {
		return row, err
	}
	workers, err := shard.SpawnEmbedded(m, []shard.DocSpec{{Name: "m0", DocPath: docPath, DTDPath: dtdPath}},
		shard.EmbeddedOptions{
			Executor: flux.ExecutorOptions{Window: 2 * time.Millisecond, MaxBatch: len(qnames)},
			Admin:    true, // migration needs the workers' install/retire/fetch
		})
	if err != nil {
		return row, err
	}
	defer func() {
		for _, w := range workers {
			w.Close()
		}
	}()
	rt, err := shard.NewRouter(shard.RouterOptions{Map: m, Shards: shard.Addrs(workers), HealthInterval: -1, Admin: true})
	if err != nil {
		return row, err
	}
	defer rt.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return row, err
	}
	hs := &http.Server{Handler: rt}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	migDone := make(chan error, 1)
	start := time.Now()
	for wave := 0; wave < migrateWaves; wave++ {
		if live && wave == 1 {
			// Race the migration against the middle wave. Whatever the
			// interleaving, totals must match the static run.
			go func() {
				_, err := rt.MigrateDoc(ctx, "m0", 0, 1)
				migDone <- err
			}()
		}
		results := make([]servedResult, len(qnames))
		var wg sync.WaitGroup
		for qi, qname := range qnames {
			wg.Add(1)
			go func(slot int, queryText string) {
				defer wg.Done()
				results[slot] = servedRequest(ctx, base, "m0", queryText)
			}(qi, xmark.Queries[qname])
		}
		wg.Wait()
		for _, r := range results {
			if r.err != nil {
				return row, fmt.Errorf("%s wave %d: %w", mode, wave, r.err)
			}
			row.Output += r.output
			row.Buffer += r.buffer
			row.Tokens += r.tokens
		}
	}
	if live {
		if err := <-migDone; err != nil {
			return row, fmt.Errorf("migration failed: %w", err)
		}
		if owners := rt.Topology().View().Owners("m0"); len(owners) != 1 || owners[0] != 1 {
			return row, fmt.Errorf("migration did not move m0: owners %v", owners)
		}
	}
	row.Elapsed = time.Since(start)
	return row, nil
}

// skewedWave is how many concurrent hot-document requests one skewed
// burst fires: enough to saturate a single capacity-capped worker so
// the replica's extra capacity shows up in wall clock.
const skewedWave = 8

// skewedConvergeTimeout bounds how long the converge row waits for the
// rebalancer to replicate the hot document before the run fails.
const skewedConvergeTimeout = 30 * time.Second

// skewedHealthInterval is the skewed tier's health-probe period: short
// enough that worker-reported admission load stays fresh across bursts
// (the probe feeds replica scoring) without probe traffic mattering.
const skewedHealthInterval = 20 * time.Millisecond

// skewedServiceFloor is the emulated per-request service time of a
// skewed-tier worker: long enough to dominate the scan's CPU time at
// every benchmark size, so the rows measure queueing on node capacity
// (which replication halves) rather than single-host CPU contention.
const skewedServiceFloor = 25 * time.Millisecond

// runSkewed measures what the autonomous rebalancer buys under a
// skewed workload. Documents "hot" and "cold" (both the benchmark
// document) are served by workers gated to one request at a time with
// a skewedServiceFloor wall-clock floor each, so a hot burst
// serializes on a single owner — the in-process emulation of a
// saturated node, whose queueing (unlike raw scan CPU on a small host)
// a second replica genuinely halves. The single row
// times skewedWave concurrent hot requests against one worker owning
// both documents. The converge row starts hot on shard 0 of a 2-shard
// router tier, runs a rebalancer (tight interval, threshold 1), bursts
// hot traffic until the rebalancer has replicated the document onto
// shard 1 on its own authority, stops the rebalancer, and then times
// the same burst fanning out across both replicas. Elapsed is the best
// of sharedRepeats bursts; Output/Buffer/Tokens are summed from the
// first burst. CheckSkewedConverge gates converge < single per size.
func runSkewed(ctx context.Context, workDir, docPath string, sizeMB int, docBytes int64, qnames []string, converge bool) (Row, error) {
	mode := ModeSkewedSingle
	if converge {
		mode = ModeSkewedConverge
	}
	row := Row{Query: SkewedQueryName, SizeMB: sizeMB, Bytes: docBytes, Mode: mode}

	dtdPath := filepath.Join(workDir, "xmark.dtd")
	if err := os.WriteFile(dtdPath, []byte(xmark.DTD), 0o644); err != nil {
		return row, err
	}
	specs := []shard.DocSpec{
		{Name: "hot", DocPath: docPath, DTDPath: dtdPath},
		{Name: "cold", DocPath: docPath, DTDPath: dtdPath},
	}
	placement := map[string][]int{"hot": {0}, "cold": {0}}
	shardCount := 1
	if converge {
		placement["cold"] = []int{1}
		shardCount = 2
	}
	m, err := shard.NewMapFromPlacement(placement, shardCount)
	if err != nil {
		return row, err
	}
	workers, err := shard.SpawnEmbedded(m, specs, shard.EmbeddedOptions{
		Executor: flux.ExecutorOptions{Window: time.Millisecond, MaxBatch: 1},
		// Each worker serves one request at a time with a wall-clock
		// service floor — the emulated per-node capacity. Requests queue
		// on a saturated worker exactly as on a saturated node, which is
		// the contention replication exists to relieve, and the floors of
		// two workers overlap in wall clock even on a single-CPU host.
		ServiceSlots:   1,
		MinServiceTime: skewedServiceFloor,
		Admin:          converge, // the rebalancer rides install/retire/fetch
	})
	if err != nil {
		return row, err
	}
	defer func() {
		for _, w := range workers {
			w.Close()
		}
	}()
	rt, err := shard.NewRouter(shard.RouterOptions{
		Map: m, Shards: shard.Addrs(workers),
		HealthInterval: skewedHealthInterval, // rebalance targets must probe live
		Admin:          converge,
	})
	if err != nil {
		return row, err
	}
	defer rt.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return row, err
	}
	hs := &http.Server{Handler: rt}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	// Every request runs the sweep's first query: the rows measure
	// placement and queueing, not query semantics, and a cheap query
	// keeps scan CPU inside the service floor at every document size —
	// otherwise single-host CPU contention, which no placement can
	// relieve, would drown the signal the gate checks.
	queryText := xmark.Queries[qnames[0]]

	burst := func() (time.Duration, []servedResult, error) {
		results := make([]servedResult, skewedWave)
		var wg sync.WaitGroup
		start := time.Now()
		for i := 0; i < skewedWave; i++ {
			wg.Add(1)
			go func(slot int) {
				defer wg.Done()
				results[slot] = servedRequest(ctx, base, "hot", queryText)
			}(i)
		}
		wg.Wait()
		elapsed := time.Since(start)
		for _, r := range results {
			if r.err != nil {
				return 0, nil, r.err
			}
		}
		return elapsed, results, nil
	}

	if converge {
		// The tier converges on its own: bursts build the router's load
		// signal, the rebalancer sees the hot document dominating its
		// shard and installs the replica. The run does not place it.
		rb, err := shard.NewRebalancer(rt, shard.RebalancerOptions{
			Interval:  5 * time.Millisecond,
			Threshold: 1,
		})
		if err != nil {
			return row, err
		}
		deadline := time.Now().Add(skewedConvergeTimeout)
		for len(rt.Topology().View().Owners("hot")) < 2 {
			if time.Now().After(deadline) {
				rb.Close()
				return row, fmt.Errorf("rebalancer did not replicate the hot document within %v", skewedConvergeTimeout)
			}
			if _, _, err := burst(); err != nil {
				rb.Close()
				return row, err
			}
		}
		// Freeze the converged topology so the timed bursts measure the
		// fan-out, not further control-plane motion.
		rb.Close()
	}

	for rep := 0; rep < sharedRepeats; rep++ {
		// Let the health probes observe the tier idle first: a stale
		// busy reading from the previous burst would steer the whole
		// wave to one replica, and the wave is what's being measured.
		time.Sleep(3 * skewedHealthInterval)
		elapsed, results, err := burst()
		if err != nil {
			return row, err
		}
		if rep == 0 || elapsed < row.Elapsed {
			row.Elapsed = elapsed
		}
		if rep == 0 {
			for _, r := range results {
				row.Output += r.output
				row.Buffer += r.buffer
				row.Tokens += r.tokens
			}
		}
	}
	return row, nil
}

// runServed measures the serving tier end to end: the benchmark
// document registered as two catalog documents ("x0", "x1") and every
// query of the sweep executed against both over HTTP — through one
// embedded worker holding both documents (single-node fluxd), or
// through a fluxrouter over two embedded shards holding one document
// each. Elapsed is the best wall clock of sharedRepeats waves of
// concurrent requests; Output/Buffer/Tokens are summed from the
// response bodies and stats trailers on the first wave (they are
// deterministic — CheckSharded holds the sharded row to the single
// row's values).
func runServed(ctx context.Context, workDir, docPath string, sizeMB int, docBytes int64, qnames []string, sharded bool) (Row, error) {
	mode := ModeServedSingle
	if sharded {
		mode = ModeServedSharded
	}
	row := Row{Query: ServedQueryName, SizeMB: sizeMB, Bytes: docBytes, Mode: mode}

	dtdPath := filepath.Join(workDir, "xmark.dtd")
	if err := os.WriteFile(dtdPath, []byte(xmark.DTD), 0o644); err != nil {
		return row, err
	}
	specs := []shard.DocSpec{
		{Name: "x0", DocPath: docPath, DTDPath: dtdPath},
		{Name: "x1", DocPath: docPath, DTDPath: dtdPath},
	}
	placement := map[string][]int{"x0": {0}, "x1": {0}}
	shardCount := 1
	if sharded {
		placement["x1"] = []int{1}
		shardCount = 2
	}
	m, err := shard.NewMapFromPlacement(placement, shardCount)
	if err != nil {
		return row, err
	}
	workers, err := shard.SpawnEmbedded(m, specs, shard.EmbeddedOptions{
		Executor: flux.ExecutorOptions{Window: 30 * time.Second, MaxBatch: len(qnames)},
	})
	if err != nil {
		return row, err
	}
	defer func() {
		for _, w := range workers {
			w.Close()
		}
	}()
	base := workers[0].Addr
	if sharded {
		rt, rerr := shard.NewRouter(shard.RouterOptions{Map: m, Shards: shard.Addrs(workers), HealthInterval: -1})
		if rerr != nil {
			return row, rerr
		}
		defer rt.Close()
		ln, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			return row, lerr
		}
		hs := &http.Server{Handler: rt}
		go hs.Serve(ln)
		defer hs.Close()
		base = "http://" + ln.Addr().String()
	}

	docs := []string{"x0", "x1"}
	for rep := 0; rep < sharedRepeats; rep++ {
		results := make([]servedResult, len(docs)*len(qnames))
		var wg sync.WaitGroup
		start := time.Now()
		for di, doc := range docs {
			for qi, qname := range qnames {
				wg.Add(1)
				go func(slot int, doc, queryText string) {
					defer wg.Done()
					results[slot] = servedRequest(ctx, base, doc, queryText)
				}(di*len(qnames)+qi, doc, xmark.Queries[qname])
			}
		}
		wg.Wait()
		elapsed := time.Since(start)
		for _, r := range results {
			if r.err != nil {
				return row, r.err
			}
		}
		if rep == 0 || elapsed < row.Elapsed {
			row.Elapsed = elapsed
		}
		if rep == 0 {
			for _, r := range results {
				row.Output += r.output
				row.Buffer += r.buffer
				row.Tokens += r.tokens
			}
		}
	}
	return row, nil
}

// servedResult is one HTTP request's measurement.
type servedResult struct {
	output, buffer, tokens int64
	shard                  string // X-Flux-Shard: which worker served it
	err                    error
}

// servedRequest posts one query and folds the streamed body and stats
// trailers into a measurement.
func servedRequest(ctx context.Context, base, doc, queryText string) (r servedResult) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		base+"/query?doc="+doc, strings.NewReader(queryText))
	if err != nil {
		r.err = err
		return r
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		r.err = err
		return r
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		r.err = err
		return r
	}
	if resp.StatusCode != http.StatusOK {
		r.err = fmt.Errorf("served %s: status %d", doc, resp.StatusCode)
		return r
	}
	r.output = n
	r.shard = resp.Header.Get("X-Flux-Shard")
	r.buffer, _ = strconv.ParseInt(resp.Trailer.Get("X-Flux-Peak-Buffer-Bytes"), 10, 64)
	r.tokens, _ = strconv.ParseInt(resp.Trailer.Get("X-Flux-Tokens"), 10, 64)
	return r
}

// fig4Repeats is how many times each per-query Figure 4 cell runs; the
// row records the fastest, for the same reason as sharedRepeats below.
const fig4Repeats = 3

// sharedRepeats is how many times the shared-scan batch runs; the row
// records the fastest. A single wall-clock sample of a small document
// is too noisy to gate CI on at a 20% threshold — min-of-N damps
// scheduler jitter while staying comparable across runs.
const sharedRepeats = 3

// percentileRequests is the number of open-loop requests per
// ModeServedLatency row: enough samples for a meaningful p99 (the top
// sample) without making the sweep interactive-slow.
const percentileRequests = 64

// percentileRepeats is how many open-loop passes the served-latency row
// runs, keeping the elementwise best (min p50, min p99, max qps).
// Contention from outside the process only ever inflates a pass, so the
// minima are the tier's own latency — the same min-of-N discipline as
// sharedRepeats and the Figure 4 cells.
const percentileRepeats = 3

// runPercentiles measures serving-tier request latency open-loop: one
// embedded worker holds the document, a warmup pass estimates the mean
// service time, and percentileRequests requests are then fired at a
// fixed arrival interval of serviceTime/0.7 (≈70% utilization) — on
// schedule whether or not earlier requests have completed, so queueing
// delay lands in the measured tail exactly as it would for real
// clients. The row records p50/p99 latency and achieved queries/sec.
func runPercentiles(ctx context.Context, workDir, docPath string, sizeMB int, docBytes int64, qnames []string) (Row, error) {
	row := Row{Query: ServedQueryName, SizeMB: sizeMB, Bytes: docBytes, Mode: ModeServedLatency}

	dtdPath := filepath.Join(workDir, "xmark.dtd")
	if err := os.WriteFile(dtdPath, []byte(xmark.DTD), 0o644); err != nil {
		return row, err
	}
	specs := []shard.DocSpec{{Name: "x0", DocPath: docPath, DTDPath: dtdPath}}
	m, err := shard.NewMapFromPlacement(map[string][]int{"x0": {0}}, 1)
	if err != nil {
		return row, err
	}
	workers, err := shard.SpawnEmbedded(m, specs, shard.EmbeddedOptions{
		// A real serving window, unlike the served rows' dispatch-on-full
		// batching: requests here arrive paced, not as one burst, so a
		// long window would stall every lone request instead of batching.
		Executor: flux.ExecutorOptions{Window: 2 * time.Millisecond, MaxBatch: len(qnames)},
	})
	if err != nil {
		return row, err
	}
	defer func() {
		for _, w := range workers {
			w.Close()
		}
	}()
	base := workers[0].Addr

	// Warmup, which also estimates service time. Take the fastest of
	// percentileRepeats rounds per query: the arrival interval below is
	// derived from this estimate, and queueing makes p50 acutely
	// sensitive to the arrival rate — a noisy one-shot estimate would
	// make runs measure different workloads and be incomparable.
	var service time.Duration
	for round := 0; round < percentileRepeats; round++ {
		warmStart := time.Now()
		for _, qname := range qnames {
			if r := servedRequest(ctx, base, "x0", xmark.Queries[qname]); r.err != nil {
				return row, r.err
			}
		}
		est := time.Since(warmStart) / time.Duration(len(qnames))
		if round == 0 || est < service {
			service = est
		}
	}
	interval := service * 10 / 7

	// Best of percentileRepeats open-loop passes, elementwise: external
	// load can only inflate a pass's percentiles, so the minima estimate
	// the tier's own latency — the same min-of-N discipline the Figure 4
	// cells use, without which a 20% CI gate on p50/p99 flaps on shared
	// runners.
	for rep := 0; rep < percentileRepeats; rep++ {
		lats := make([]time.Duration, percentileRequests)
		errs := make([]error, percentileRequests)
		var wg sync.WaitGroup
		start := time.Now()
		tick := time.NewTicker(interval)
		for i := 0; i < percentileRequests; i++ {
			wg.Add(1)
			go func(slot int, queryText string) {
				defer wg.Done()
				reqStart := time.Now()
				r := servedRequest(ctx, base, "x0", queryText)
				lats[slot] = time.Since(reqStart)
				errs[slot] = r.err
			}(i, xmark.Queries[qnames[i%len(qnames)]])
			if i < percentileRequests-1 {
				select {
				case <-tick.C:
				case <-ctx.Done():
					tick.Stop()
					wg.Wait()
					return row, ctx.Err()
				}
			}
		}
		wg.Wait()
		tick.Stop()
		elapsed := time.Since(start)
		for _, err := range errs {
			if err != nil {
				return row, err
			}
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		p50 := lats[len(lats)/2]
		p99 := lats[min(len(lats)-1, len(lats)*99/100)]
		qps := float64(percentileRequests) / elapsed.Seconds()
		if rep == 0 || p50 < row.P50 {
			row.P50 = p50
		}
		if rep == 0 || p99 < row.P99 {
			row.P99 = p99
		}
		if rep == 0 || qps > row.QPS {
			row.QPS = qps
		}
		if rep == 0 || elapsed < row.Elapsed {
			row.Elapsed = elapsed
		}
	}
	return row, nil
}

// runShared measures flux.RunAll: the queries compiled once and executed
// in a single all-fanout shared pass of the document, filling in the
// measurements of row (whose identity the caller sets); elapsed is the
// best of sharedRepeats passes.
func runShared(ctx context.Context, row Row, texts []string, docPath string) (Row, error) {
	queries := make([]*flux.Query, len(texts))
	ws := make([]io.Writer, len(texts))
	for i, text := range texts {
		q, err := flux.Prepare(text, xmark.DTD)
		if err != nil {
			return row, err
		}
		queries[i] = q
		ws[i] = io.Discard
	}
	for rep := 0; rep < sharedRepeats; rep++ {
		f, err := os.Open(docPath)
		if err != nil {
			return row, err
		}
		start := time.Now()
		results, err := flux.RunAllContext(ctx, queries, f, flux.Options{}, ws...)
		elapsed := time.Since(start)
		f.Close()
		if err != nil {
			return row, err
		}
		if rep == 0 || elapsed < row.Elapsed {
			row.Elapsed = elapsed
		}
		if rep == 0 {
			// Buffering, delivery and output are deterministic; record
			// them once.
			for _, r := range results {
				if r.Err != nil {
					return row, r.Err
				}
				row.Tokens += r.Stats.Tokens
				row.Buffer += r.Stats.PeakBufferBytes
				row.Output += r.Stats.OutputBytes
			}
		}
	}
	return row, nil
}

// runFanout measures event routing for one query batch. The all-fanout
// mode is one flux.RunAll scan (runShared); the automaton and parallel
// modes are the serving path: queries submitted concurrently to one
// Executor batch (MaxBatch equal to the query count, so exactly one
// dispatch decision). Elapsed is the best of sharedRepeats batch
// wall-clocks; Tokens (summed events delivered) and Buffer (summed
// per-query peaks) are deterministic and recorded once.
func runFanout(ctx context.Context, docPath string, sizeMB int, docBytes int64, qname string, queries []string, mode Mode) (Row, error) {
	row := Row{Query: qname, SizeMB: sizeMB, Bytes: docBytes, Mode: mode}
	if mode == ModeFanoutAll {
		return runShared(ctx, row, queries, docPath)
	}

	cat := flux.NewCatalog(flux.CatalogOptions{})
	if err := cat.Add("doc", docPath, xmark.DTD); err != nil {
		return row, err
	}
	ex, err := flux.NewExecutor(cat, flux.ExecutorOptions{
		Window:   30 * time.Second, // dispatch on MaxBatch, not the window
		MaxBatch: len(queries),
	})
	if err != nil {
		return row, err
	}
	for rep := 0; rep < sharedRepeats; rep++ {
		results := make([]flux.ExecResult, len(queries))
		errs := make([]error, len(queries))
		var wg sync.WaitGroup
		start := time.Now()
		for i, q := range queries {
			wg.Add(1)
			go func(i int, q string) {
				defer wg.Done()
				results[i], errs[i] = ex.ExecuteContext(ctx, "doc", q, io.Discard)
			}(i, q)
		}
		wg.Wait()
		elapsed := time.Since(start)
		for _, err := range errs {
			if err != nil {
				return row, err
			}
		}
		if rep == 0 || elapsed < row.Elapsed {
			row.Elapsed = elapsed
		}
		if rep == 0 {
			for _, r := range results {
				row.Tokens += r.Stats.Tokens
				row.Buffer += r.Stats.PeakBufferBytes
				row.Output += r.Stats.OutputBytes
			}
		}
	}
	return row, nil
}

// EnsureDocument generates (or reuses) the benchmark document of the
// requested size in dir and returns its path and byte size.
func EnsureDocument(dir string, sizeMB int, seed int64) (string, int64, error) {
	path := filepath.Join(dir, fmt.Sprintf("xmark-%dmb-seed%d.xml", sizeMB, seed))
	if fi, err := os.Stat(path); err == nil && fi.Size() > 0 {
		return path, fi.Size(), nil
	}
	f, err := os.Create(path)
	if err != nil {
		return "", 0, err
	}
	n, err := xmark.Generate(f, xmark.GenOptions{
		Scale: xmark.ScaleForBytes(int64(sizeMB) << 20),
		Seed:  seed,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return "", 0, err
	}
	return path, n, nil
}

func runOne(ctx context.Context, queryText, docPath string, mode Mode) (flux.Stats, time.Duration, error) {
	var q *flux.Query
	var err error
	if mode == ModeFluXNoSchema {
		q, err = flux.PrepareUnscheduled(queryText, xmark.DTD)
	} else {
		q, err = flux.Prepare(queryText, xmark.DTD)
	}
	if err != nil {
		return flux.Stats{}, 0, err
	}
	opt := flux.Options{}
	switch mode {
	case ModeNaive:
		opt.Engine = flux.Naive
	case ModeProjection:
		opt.Engine = flux.Projection
	}
	f, err := os.Open(docPath)
	if err != nil {
		return flux.Stats{}, 0, err
	}
	defer f.Close()
	start := time.Now()
	st, err := q.RunContext(ctx, f, io.Discard, opt)
	return st, time.Since(start), err
}

// FormatBytes renders a byte count the way Figure 4 does (0, 4.66k,
// 3.16M, ...).
func FormatBytes(n int64) string {
	switch {
	case n < 1000:
		return fmt.Sprintf("%d", n)
	case n < 1_000_000:
		return fmt.Sprintf("%.2fk", float64(n)/1000)
	default:
		return fmt.Sprintf("%.2fM", float64(n)/1_000_000)
	}
}

// FormatTable renders rows in the layout of the paper's Figure 4: one
// block per query, one line per size, one "time/memory" column per mode.
func FormatTable(rows []Row, modes []Mode) string {
	if len(modes) == 0 {
		modes = AllModes
	}
	type key struct {
		query  string
		sizeMB int
	}
	inModes := make(map[Mode]bool, len(modes))
	for _, m := range modes {
		inModes[m] = true
	}
	cells := make(map[key]map[Mode]Row)
	var queries []string
	seenQ := map[string]bool{}
	sizesSet := map[int]bool{}
	for _, r := range rows {
		if !inModes[r.Mode] {
			continue // e.g. shared-scan rows, which have their own shape
		}
		k := key{r.Query, r.SizeMB}
		if cells[k] == nil {
			cells[k] = make(map[Mode]Row)
		}
		cells[k][r.Mode] = r
		if !seenQ[r.Query] {
			seenQ[r.Query] = true
			queries = append(queries, r.Query)
		}
		sizesSet[r.SizeMB] = true
	}
	var sizes []int
	for s := range sizesSet {
		sizes = append(sizes, s)
	}
	sort.Ints(sizes)

	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %6s", "query", "size")
	for _, m := range modes {
		fmt.Fprintf(&b, " | %24s", string(m)+" (time/mem)")
	}
	b.WriteString("\n")
	b.WriteString(strings.Repeat("-", 14+27*len(modes)) + "\n")
	for _, q := range queries {
		for _, s := range sizes {
			row, ok := cells[key{q, s}]
			if !ok {
				continue
			}
			fmt.Fprintf(&b, "%-6s %4dMB", q, s)
			for _, m := range modes {
				r, ok := row[m]
				switch {
				case !ok:
					fmt.Fprintf(&b, " | %24s", "n/a")
				case r.Skipped:
					fmt.Fprintf(&b, " | %24s", "- / skipped")
				default:
					fmt.Fprintf(&b, " | %13.2fs /%8s", r.Elapsed.Seconds(), FormatBytes(r.Buffer))
				}
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}
