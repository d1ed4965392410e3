package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"flux"
	"flux/internal/shard"
)

const tailDTD = `
<!ELEMENT bib (book*)>
<!ELEMENT book (title,year)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT year (#PCDATA)>
`

const tailDoc = `<bib>` +
	`<book><title>FluX</title><year>2004</year></book>` +
	`<book><title>XMark</title><year>2002</year></book>` +
	`</bib>`

// TestReplayRoundTrip drives the client pieces end to end against a
// real server: subscribe, confirm parked, replay the document paced and
// chunked, and check the subscription saw exactly the static result.
func TestReplayRoundTrip(t *testing.T) {
	cat := flux.NewCatalog(flux.CatalogOptions{})
	if err := cat.AddStream("feed", tailDTD); err != nil {
		t.Fatal(err)
	}
	ex, err := flux.NewExecutor(cat, flux.ExecutorOptions{Window: time.Millisecond, MaxBatch: 16})
	if err != nil {
		t.Fatal(err)
	}
	srv := shard.NewServer(ex, shard.ServerOptions{ShardID: -1})
	ts := httptest.NewServer(srv)
	defer func() {
		srv.Hub().Close()
		ts.Close()
	}()

	qpath := filepath.Join(t.TempDir(), "titles.xq")
	qtext := `{ for $b in /bib/book return {$b/title} }`
	if err := os.WriteFile(qpath, []byte(qtext), 0o644); err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	start := time.Now()
	done := make(chan subOutcome, 1)
	go func() {
		done <- subscribe(ts.URL, "feed", qpath, qtext, &got, start)
	}()
	waitParked(ts.URL, 1)

	body := &pacedReader{r: strings.NewReader(tailDoc), chunk: 7, rate: 1 << 20}
	resp, err := ts.Client().Post(ts.URL+"/ingest?doc=feed", "application/xml", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/ingest status %d", resp.StatusCode)
	}
	if body.sent != int64(len(tailDoc)) {
		t.Fatalf("replayed %d bytes, want %d", body.sent, len(tailDoc))
	}

	var out subOutcome
	select {
	case out = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("subscription never finished")
	}
	if out.err != nil {
		t.Fatal(out.err)
	}
	want := "<title>FluX</title><title>XMark</title>"
	if got.String() != want {
		t.Fatalf("subscription output %q, want %q", got.String(), want)
	}
	if out.firstResult == 0 || out.outputBytes != int64(len(want)) {
		t.Fatalf("outcome = %+v", out)
	}
}

// TestCountWaiting pins the minimal /streamz field extraction.
func TestCountWaiting(t *testing.T) {
	cases := []struct {
		in   string
		want int
	}{
		{`{"active_ingests":null,"waiting_subscriptions":3}`, 3},
		{"{\n  \"active_ingests\": null,\n  \"waiting_subscriptions\": 2\n}", 2},
		{`{"active_ingests":["a"],"waiting_subscriptions":12}`, 12},
		{`{"active_ingests":null}`, 0},
		{``, 0},
	}
	for _, tc := range cases {
		if got := countWaiting(tc.in); got != tc.want {
			t.Errorf("countWaiting(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
}
