package flux

import (
	"testing"

	"flux/internal/xmark"
)

// TestSharedPrefixQueriesCompile pins the prefix queries of the
// serve-open, serve-closed, tier-http and stream-replay workloads of
// benchmark/: every generated shared-prefix query (all subpath pairs)
// must compile and schedule against the XMark DTD.
func TestSharedPrefixQueriesCompile(t *testing.T) {
	qs := xmark.SharedPrefixQueries(171)
	seen := make(map[string]bool, len(qs))
	for i, q := range qs {
		if seen[q] {
			t.Fatalf("query %d duplicated: %s", i, q)
		}
		seen[q] = true
		if _, err := Prepare(q, xmark.DTD); err != nil {
			t.Fatalf("query %d does not compile: %v\n%s", i, err, q)
		}
	}
}
