// Package holdtest fills an Executor's processors, so that a test can
// watch concurrent queries gather into one batch.
//
// A flux.Executor dispatches a query at once, alone, while it holds no
// more queries than runtime.GOMAXPROCS; only beyond that do queries
// wait in a batch window for companions. A test that fires concurrent
// queries to observe batching first calls Hold, which parks that many
// queries mid-scan on a document of their own, so the test's queries
// find every processor taken and the test's own document counters stay
// its own.
package holdtest

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

// Doc is the name Hold registers its document under.
const Doc = "held"

// The held document, its schema and the query each held execution
// runs. The query streams, so its admission charge is zero and a held
// scan never takes memory budget from the queries under test.
const (
	dtd   = "<!ELEMENT h (x*)>\n<!ELEMENT x (#PCDATA)>\n"
	doc   = "<h><x>1</x><x>2</x></h>"
	query = "<held> { for $x in /h/x return {$x} } </held>"
)

// Hold registers Doc through add and starts runtime.GOMAXPROCS(0)
// executions of a query over it through exec, each writing to a writer
// that blocks on its first write. It returns once every execution is
// blocked there, that is, held mid-scan by the Executor. release
// unblocks the writers and waits for the executions to return; it may
// be called more than once and is also registered with t.Cleanup.
//
// add is a Catalog's Add and exec an Executor's ExecuteContext:
//
//	release := holdtest.Hold(t, cat.Add, ex.ExecuteContext)
func Hold[R any](t testing.TB, add func(name, docPath, dtdText string) error,
	exec func(ctx context.Context, doc, queryText string, w io.Writer) (R, error)) (release func()) {
	t.Helper()
	path := filepath.Join(t.TempDir(), Doc+".xml")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := add(Doc, path, dtd); err != nil {
		t.Fatal(err)
	}
	open := make(chan struct{})
	var wg sync.WaitGroup
	var once sync.Once
	release = func() {
		once.Do(func() {
			close(open)
			wg.Wait()
		})
	}
	t.Cleanup(release)
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		w := &gate{open: open, blocked: make(chan struct{})}
		returned := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(returned)
			if _, err := exec(context.Background(), Doc, query, w); err != nil {
				t.Errorf("held execution: %v", err)
			}
		}()
		select {
		case <-w.blocked:
		case <-returned:
			t.Fatalf("held execution %d returned before its scan wrote", i)
		}
	}
	return release
}

// gate is a writer whose first write signals blocked and then waits,
// like every later write, until open is closed.
type gate struct {
	open    <-chan struct{}
	blocked chan struct{}
	once    sync.Once
}

func (g *gate) Write(p []byte) (int, error) {
	g.once.Do(func() { close(g.blocked) })
	<-g.open
	return len(p), nil
}
