// Command fluxtail replays an XML document to a fluxd /ingest endpoint
// as a timed stream — the producer side of the live-ingestion
// subsystem, for demos, load tests, and the stream-replay benchmark's
// operational twin. It optionally opens standing subscriptions first,
// so one invocation exercises the whole loop: subscribe, stream the
// document in chunks, and report each query's time to first result —
// the latency a standing query actually observes, measured from the
// moment the replay starts.
//
// Usage:
//
//	fluxtail -server http://localhost:8700 -doc feed -in data.xml \
//	         [-chunk 4096] [-rate 1048576] [-query q.xq ...]
//
// -chunk is the write granularity in bytes; -rate paces the replay in
// bytes per second (0 streams as fast as the server admits, which is
// the backpressure rate of the slowest subscriber). Each -query (
// repeatable) is posted to /subscribe before the replay begins; its
// results go to stdout (one query) or are discarded with counts
// reported (several), and per-query stats print to stderr when the
// stream ends.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"
)

// repeatFlag collects every occurrence of a repeatable string flag.
type repeatFlag []string

// String implements flag.Value.
func (f *repeatFlag) String() string { return strings.Join(*f, ",") }

// Set implements flag.Value.
func (f *repeatFlag) Set(v string) error {
	*f = append(*f, v)
	return nil
}

// subOutcome is one subscription's report, printed when it ends.
type subOutcome struct {
	query       string
	status      int
	outputBytes int64
	firstResult time.Duration // measured client-side from replay start
	trailer     http.Header
	err         error
}

func main() {
	var (
		server = flag.String("server", "http://localhost:8700", "fluxd base URL")
		doc    = flag.String("doc", "", "document name to ingest into (required)")
		inFile = flag.String("in", "", "XML document to replay (default stdin; stdin cannot be paced twice, files can)")
		chunk  = flag.Int("chunk", 4096, "write granularity in bytes")
		rate   = flag.Int64("rate", 0, "replay pacing in bytes per second (0 = as fast as the server admits)")

		queries repeatFlag
	)
	flag.Var(&queries, "query", "path to an XQuery⁻ query to open as a standing subscription before the replay (repeatable)")
	flag.Parse()

	if *doc == "" {
		fatal(fmt.Errorf("-doc is required"))
	}
	if *chunk <= 0 {
		fatal(fmt.Errorf("-chunk must be positive, got %d", *chunk))
	}
	if *rate < 0 {
		fatal(fmt.Errorf("-rate must be non-negative, got %d", *rate))
	}

	var in io.Reader = os.Stdin
	if *inFile != "" {
		f, err := os.Open(*inFile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}

	base := strings.TrimRight(*server, "/")
	start := time.Now()

	// Open the subscriptions first: a standing query must be parked
	// before the stream begins to observe the whole document.
	var wg sync.WaitGroup
	outcomes := make([]subOutcome, len(queries))
	for i, qpath := range queries {
		qtext, err := os.ReadFile(qpath)
		if err != nil {
			fatal(err)
		}
		// Results stream to stdout when there is exactly one query;
		// with several, interleaved output would be garbage, so the
		// bytes are counted and discarded instead.
		var sink io.Writer = io.Discard
		if len(queries) == 1 {
			sink = os.Stdout
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			outcomes[i] = subscribe(base, *doc, qpath, string(qtext), sink, start)
		}()
	}
	if len(queries) > 0 {
		waitParked(base, len(queries))
	}

	// Replay the document.
	body := &pacedReader{r: in, chunk: *chunk, rate: *rate}
	resp, err := http.Post(base+"/ingest?doc="+*doc, "application/xml", body)
	if err != nil {
		fatal(err)
	}
	summary, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fatal(fmt.Errorf("/ingest: status %d: %s", resp.StatusCode, strings.TrimSpace(string(summary))))
	}
	fmt.Fprintf(os.Stderr, "fluxtail: replayed %d bytes in %s: %s\n",
		body.sent, time.Since(start).Round(time.Millisecond), strings.TrimSpace(string(summary)))

	wg.Wait()
	for _, o := range outcomes {
		if o.err != nil {
			fmt.Fprintf(os.Stderr, "fluxtail: %s: %v\n", o.query, o.err)
			continue
		}
		fmt.Fprintf(os.Stderr, "fluxtail: %s: status=%d output_bytes=%d first_result=%s peak_buffer_bytes=%s\n",
			o.query, o.status, o.outputBytes, o.firstResult.Round(time.Microsecond),
			o.trailer.Get("X-Flux-Peak-Buffer-Bytes"))
	}
}

// subscribe opens one standing subscription and drains its response,
// recording the client-observed time to first result byte.
func subscribe(base, doc, qpath, qtext string, sink io.Writer, start time.Time) subOutcome {
	out := subOutcome{query: qpath}
	resp, err := http.Post(base+"/subscribe?doc="+doc, "text/plain", strings.NewReader(qtext))
	if err != nil {
		out.err = err
		return out
	}
	defer resp.Body.Close()
	out.status = resp.StatusCode
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if out.firstResult == 0 {
				out.firstResult = time.Since(start)
			}
			out.outputBytes += int64(n)
			if _, werr := sink.Write(buf[:n]); werr != nil {
				out.err = werr
				return out
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			out.err = err
			return out
		}
	}
	out.trailer = resp.Trailer
	if e := resp.Trailer.Get("X-Flux-Error"); e != "" {
		out.err = fmt.Errorf("subscription failed: %s", e)
	}
	return out
}

// waitParked polls /streamz until n subscriptions are parked, so the
// replay provably starts after every standing query is registered.
// Best-effort: on persistent errors the replay proceeds anyway and the
// subscriptions join mid-stream.
func waitParked(base string, n int) {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/streamz")
		if err != nil {
			time.Sleep(50 * time.Millisecond)
			continue
		}
		var body []byte
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && countWaiting(string(body)) >= n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Fprintf(os.Stderr, "fluxtail: warning: %d subscription(s) not confirmed parked; replaying anyway\n", n)
}

// countWaiting pulls waiting_subscriptions out of the /streamz JSON
// without a full decode — the one field this client needs.
func countWaiting(s string) int {
	const key = `"waiting_subscriptions":`
	i := strings.Index(s, key)
	if i < 0 {
		return 0
	}
	rest := strings.TrimLeft(s[i+len(key):], " \t\n")
	n := 0
	for _, c := range rest {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// pacedReader feeds the request body in fixed-size chunks at a target
// byte rate. Pacing is computed against the replay's own clock, so a
// slow server (admission backpressure) naturally lowers the achieved
// rate below the target rather than bursting to catch up unboundedly.
type pacedReader struct {
	r     io.Reader
	chunk int
	rate  int64 // bytes per second; 0 = unpaced
	sent  int64
	start time.Time
}

// Read implements io.Reader.
func (p *pacedReader) Read(b []byte) (int, error) {
	if p.start.IsZero() {
		p.start = time.Now()
	}
	if p.rate > 0 && p.sent > 0 {
		// Sleep until the bytes already sent fit the target rate.
		due := time.Duration(p.sent) * time.Second / time.Duration(p.rate)
		if ahead := due - time.Since(p.start); ahead > 0 {
			time.Sleep(ahead)
		}
	}
	if len(b) > p.chunk {
		b = b[:p.chunk]
	}
	n, err := p.r.Read(b)
	p.sent += int64(n)
	return n, err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fluxtail:", err)
	os.Exit(1)
}
