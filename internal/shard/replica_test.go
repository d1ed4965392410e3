package shard

// Tests for the replica half of the control plane: the Topology's
// Register/Publish/Release transitions for adds and drops, the
// Router's live replica protocol over the fetch/install/retire
// machinery, the dead-target fault injection (a failed copy must leave
// the topology untouched), and the placement round-trip — a replica
// added at runtime must be indistinguishable from one declared in a
// shard-map file.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// replicaTopology builds the placement the transition tests share:
// three shards, "a" on 0, "b" on 1.
func replicaTopology(t *testing.T) *Topology {
	t.Helper()
	m, err := NewMapFromPlacement(map[string][]int{"a": {0}, "b": {1}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	return NewTopology(m)
}

// TestTopologyAddReplicaProtocol walks a replica add — a change that
// gains a shard and loses none: register (routing untouched, pending
// visible), publish (epoch published, owner set grown, sorted),
// release, and the validation fences.
func TestTopologyAddReplicaProtocol(t *testing.T) {
	topo := replicaTopology(t)

	c, err := topo.Register("a", 2, noShard)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Epoch() != 1 {
		t.Fatalf("registering a replica changed the epoch to %d", topo.Epoch())
	}
	if got := topo.View().Owners("a"); len(got) != 1 || got[0] != 0 {
		t.Fatalf("registering a replica changed routing: owners %v", got)
	}
	pend := topo.Pending()
	if len(pend) != 1 || pend[0].State != "copying" || pend[0].Doc != "a" || pend[0].From != noShard || pend[0].To != 2 {
		t.Fatalf("pending = %+v, want one copying entry for a ->2", pend)
	}

	// The pending copy conflicts with any other placement change of the
	// same document.
	if _, err := topo.Register("a", 1, 0); !errors.Is(err, ErrMigrationPending) {
		t.Fatalf("move during replica copy: %v, want ErrMigrationPending", err)
	}
	if _, err := topo.Register("a", 1, noShard); !errors.Is(err, ErrMigrationPending) {
		t.Fatalf("second add during copy: %v, want ErrMigrationPending", err)
	}

	drainBelow, err := topo.Publish(c)
	if err != nil {
		t.Fatal(err)
	}
	if drainBelow != 1 || topo.Epoch() != 2 {
		t.Fatalf("publish returned barrier %d (topology epoch %d), want 1 and 2", drainBelow, topo.Epoch())
	}
	if got := topo.View().Owners("a"); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("owners after publish = %v, want [0 2]", got)
	}
	topo.Release(c)
	if len(topo.Pending()) != 0 {
		t.Fatalf("release left pending state: %+v", topo.Pending())
	}
	if _, err := topo.Publish(c); err == nil {
		t.Fatal("publish after release succeeded")
	}

	// With "a" on two shards, a fresh pending copy blocks a drop too.
	c2, err := topo.Register("a", 1, noShard)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := topo.Register("a", noShard, 0); !errors.Is(err, ErrMigrationPending) {
		t.Fatalf("drop during copy: %v, want ErrMigrationPending", err)
	}
	topo.Release(c2)

	// Validation fences.
	for _, tc := range []struct {
		name string
		doc  string
		gain int
	}{
		{"unknown document", "nope", 1},
		{"target already an owner", "a", 2},
		{"target out of range", "a", 9},
	} {
		if _, err := topo.Register(tc.doc, tc.gain, noShard); err == nil {
			t.Errorf("%s: Register(%q, %d, none) succeeded", tc.name, tc.doc, tc.gain)
		}
	}
}

// TestTopologyAddReplicaAbort: releasing a replica copy before Publish
// forgets it without any routing change — there is nothing to roll
// back.
func TestTopologyAddReplicaAbort(t *testing.T) {
	topo := replicaTopology(t)
	c, err := topo.Register("b", 0, noShard)
	if err != nil {
		t.Fatal(err)
	}
	topo.Release(c)
	if topo.Epoch() != 1 {
		t.Fatalf("release changed the epoch to %d", topo.Epoch())
	}
	if got := topo.View().Owners("b"); len(got) != 1 || got[0] != 1 {
		t.Fatalf("release changed routing: owners %v", got)
	}
	if len(topo.Pending()) != 0 {
		t.Fatalf("release left pending state: %+v", topo.Pending())
	}
	// The document is free again.
	if _, err := topo.Register("b", 2, noShard); err != nil {
		t.Fatalf("add after release: %v", err)
	}
}

// TestTopologyDropReplica: a drop — a change that loses a shard and
// gains none — publishes the shrunk set in one step, hands back the old
// epoch as the drain barrier, and holds the document until released;
// the last owner can never be dropped.
func TestTopologyDropReplica(t *testing.T) {
	topo := replicaTopology(t)
	c, err := topo.Register("a", 2, noShard)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := topo.Publish(c); err != nil {
		t.Fatal(err)
	}
	topo.Release(c)

	before := topo.Epoch() // 2
	drop, err := topo.Register("a", noShard, 0)
	if err != nil {
		t.Fatal(err)
	}
	drainBelow, err := topo.Publish(drop)
	if err != nil {
		t.Fatal(err)
	}
	if drainBelow != before {
		t.Fatalf("drain barrier = %d, want the pre-drop epoch %d", drainBelow, before)
	}
	if topo.Epoch() != before+1 {
		t.Fatalf("epoch after drop = %d, want %d", topo.Epoch(), before+1)
	}
	if got := topo.View().Owners("a"); len(got) != 1 || got[0] != 2 {
		t.Fatalf("owners after drop = %v, want [2]", got)
	}
	if p := topo.Pending(); len(p) != 1 || p[0].State != "draining" || p[0].From != 0 || p[0].To != noShard {
		t.Fatalf("pending = %+v, want the drop of a from 0 draining", p)
	}
	topo.Release(drop)

	if _, err := topo.Register("a", noShard, 2); err == nil {
		t.Fatal("dropped the last owner")
	}
	if _, err := topo.Register("a", noShard, 1); err == nil {
		t.Fatal("dropped a non-owner")
	}
	if _, err := topo.Register("nope", noShard, 0); err == nil {
		t.Fatal("dropped a replica of an unknown document")
	}
}

// TestRouterReplicaLifecycle drives the live protocol end to end over
// an embedded tier: AddReplica installs a real copy and publishes the
// grown set, queries stay byte-identical and fan out, and DropReplica
// drains before retiring the copy.
func TestRouterReplicaLifecycle(t *testing.T) {
	shards, rt, ts := spawnTier(t, testDocs, 2, "alpha: 0\nbeta: 1\ngamma: 1\n")
	ctx := context.Background()
	_, wantBody := post(t, ts.URL+"/query?doc=alpha", testQueries[0])
	before := getTopology(t, ts.URL)

	rep, err := rt.AddReplica(ctx, "alpha", 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Doc != "alpha" || rep.From != 0 || rep.To != 1 || rep.Epoch != before.Epoch+1 || rep.Resumed {
		t.Fatalf("report = %+v", rep)
	}
	if got := rt.Topology().View().Owners("alpha"); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("owners after add = %v, want [0 1]", got)
	}
	if docs := shards[1].Worker().Catalog().Docs(); !containsString(docs, "alpha") {
		t.Fatalf("target worker does not hold the replica: %v", docs)
	}
	// /admin/shards lists the document on both shards now.
	topo := getTopology(t, ts.URL)
	if !containsString(topo.Shards[0].Docs, "alpha") || !containsString(topo.Shards[1].Docs, "alpha") {
		t.Fatalf("/admin/shards does not show alpha on both shards: %+v", topo.Shards)
	}
	if resp, body := post(t, ts.URL+"/query?doc=alpha", testQueries[0]); resp.StatusCode != http.StatusOK || body != wantBody {
		t.Fatalf("post-add query: status %d, identical %v", resp.StatusCode, body == wantBody)
	}

	// Adding the replica again is a validation error, not a copy.
	if _, err := rt.AddReplica(ctx, "alpha", 1); err == nil {
		t.Fatal("adding an existing replica succeeded")
	}

	drop, err := rt.DropReplica(ctx, "alpha", 0)
	if err != nil {
		t.Fatal(err)
	}
	if drop.From != 0 || drop.To != noShard || drop.Epoch != before.Epoch+2 || drop.Warning != "" {
		t.Fatalf("drop report = %+v", drop)
	}
	if got := rt.Topology().View().Owners("alpha"); len(got) != 1 || got[0] != 1 {
		t.Fatalf("owners after drop = %v, want [1]", got)
	}
	if docs := shards[0].Worker().Catalog().Docs(); containsString(docs, "alpha") {
		t.Fatalf("dropped copy still registered on shard 0: %v", docs)
	}
	resp, body := post(t, ts.URL+"/query?doc=alpha", testQueries[0])
	if resp.StatusCode != http.StatusOK || body != wantBody || resp.Header.Get("X-Flux-Shard") != "1" {
		t.Fatalf("post-drop query: status %d shard %q identical %v", resp.StatusCode, resp.Header.Get("X-Flux-Shard"), body == wantBody)
	}
}

// TestAddReplicaDeadTargetLeavesTopology is the fault injection the
// ISSUE pins: replicating into a dead shard fails in the copy step and
// the topology is exactly as before — no epoch change, no pending
// state, no owner change — so the rebalancer can simply retry.
func TestAddReplicaDeadTargetLeavesTopology(t *testing.T) {
	shards, rt, ts := spawnTier(t, testDocs, 2, "alpha: 0\nbeta: 1\ngamma: 1\n")
	before := getTopology(t, ts.URL)
	shards[1].Close() // the target

	_, err := rt.AddReplica(context.Background(), "alpha", 1)
	if err == nil {
		t.Fatal("AddReplica into a dead shard succeeded")
	}
	after := getTopology(t, ts.URL)
	if after.Epoch != before.Epoch || len(after.Pending) != 0 {
		t.Fatalf("failed replica copy mutated the topology: %+v", after)
	}
	if got := rt.Topology().View().Owners("alpha"); len(got) != 1 || got[0] != 0 {
		t.Fatalf("owners after failed add = %v, want [0]", got)
	}
	if resp, _ := post(t, ts.URL+"/query?doc=alpha", testQueries[0]); resp.StatusCode != http.StatusOK {
		t.Fatalf("source stopped serving after failed replica add: %d", resp.StatusCode)
	}
}

// TestReplicaPendingHeldThroughDrain: a change that dropped a copy —
// a DropReplica, or a move, which drops its source — holds the
// document's pending slot until that copy is retired. While the drain
// waits on an old-epoch query, adding a replica back onto the shard
// that lost the copy is refused with ErrMigrationPending (it would race
// the retire), and /admin/migrate answers 409.
func TestReplicaPendingHeldThroughDrain(t *testing.T) {
	for _, tc := range []struct {
		name      string
		overrides string
		change    func(rt *Router) error // drops alpha's copy on shard 0
	}{
		{"drop", "alpha: 0,1\nbeta: 1\ngamma: 1\n", func(rt *Router) error {
			_, err := rt.DropReplica(context.Background(), "alpha", 0)
			return err
		}},
		{"move", "alpha: 0\nbeta: 1\ngamma: 1\n", func(rt *Router) error {
			_, err := rt.MigrateDoc(context.Background(), "alpha", 0, 1)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, rt, ts := spawnTier(t, testDocs, 2, tc.overrides)
			epoch1 := getTopology(t, ts.URL).Epoch
			held := holdQuery(ts.URL, "alpha", testQueries[0])
			// Unblock the held request if the test fails first, so the
			// server can shut down.
			t.Cleanup(func() { held.pw.Close() })
			waitTopology(t, ts.URL, "held query entering epoch accounting", func(topo TopologyStatus) bool {
				return inflightUnder(topo, epoch1) >= 1
			})
			done := make(chan error, 1)
			go func() { done <- tc.change(rt) }()
			waitTopology(t, ts.URL, "drain window", func(topo TopologyStatus) bool {
				return len(topo.Pending) == 1 && topo.Pending[0].State == "draining"
			})

			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if _, err := rt.AddReplica(ctx, "alpha", 0); !errors.Is(err, ErrMigrationPending) {
				t.Fatalf("AddReplica onto the draining shard: %v, want ErrMigrationPending", err)
			}
			if resp, body := post(t, migrateURL(ts.URL, "alpha", 1, 0), ""); resp.StatusCode != http.StatusConflict {
				t.Fatalf("migrate mid-drain: status %d (%s), want 409", resp.StatusCode, body)
			}

			if out := held.release(); out.err != nil || out.status != http.StatusOK {
				t.Fatalf("held query: %+v", out)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if got := rt.Topology().View().Owners("alpha"); len(got) != 1 || got[0] != 1 {
				t.Fatalf("owners = %v, want [1]", got)
			}
			// Released after the retire: the add goes through now.
			if _, err := rt.AddReplica(ctx, "alpha", 0); err != nil {
				t.Fatalf("AddReplica after the drain: %v", err)
			}
		})
	}
}

// TestReplicaKillMidBurst is the failover fault injection: with a
// replica added at runtime through the new transition, a sustained
// read burst survives one replica being killed cold — zero errors,
// byte-identical output on every single request — because the router
// marks the dead worker on the failed attempt and retries the read on
// the survivor before any response bytes commit.
func TestReplicaKillMidBurst(t *testing.T) {
	shards, rt, ts := spawnTier(t, testDocs, 2, "alpha: 0\nbeta: 1\ngamma: 1\n")
	if _, err := rt.AddReplica(context.Background(), "alpha", 1); err != nil {
		t.Fatal(err)
	}
	_, wantBody := post(t, ts.URL+"/query?doc=alpha", testQueries[0])

	const conc = 16
	seen := make(map[string]bool)
	var seenMu sync.Mutex
	wave := func(label string) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan string, conc)
		for i := 0; i < conc; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, body := post(t, ts.URL+"/query?doc=alpha", testQueries[0])
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("%s request %d: status %d: %.120s", label, i, resp.StatusCode, body)
					return
				}
				if body != wantBody {
					errs <- fmt.Sprintf("%s request %d: body diverged", label, i)
					return
				}
				seenMu.Lock()
				seen[resp.Header.Get("X-Flux-Shard")] = true
				seenMu.Unlock()
			}(i)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
	}

	wave("pre-kill")
	shards[1].Close() // kill the replica mid-burst
	wave("post-kill")
	wave("post-kill steady")

	// The burst before the kill spread across both replicas; everything
	// after it came from the survivor.
	seenMu.Lock()
	defer seenMu.Unlock()
	if !seen["0"] {
		t.Fatalf("the surviving replica never served: shards seen %v", seen)
	}
}

// TestReplicaPlacementRoundTrip is the ApplyOverrides-vs-Topology fix:
// a replica added at runtime (AddReplica) must round-trip through
// View.Placement → NewMapFromPlacement and through a generated
// shard-map file → ApplyOverrides into exactly the placement a
// file-declared replica produces, and /admin/shards must report the
// two tiers identically.
func TestReplicaPlacementRoundTrip(t *testing.T) {
	// Tier A declares the replica in the shard-map file; tier B grows it
	// at runtime through the new transition.
	_, rtA, tsA := spawnTier(t, testDocs, 2, "alpha: 0,1\nbeta: 1\ngamma: 1\n")
	_, rtB, tsB := spawnTier(t, testDocs, 2, "alpha: 0\nbeta: 1\ngamma: 1\n")
	if _, err := rtB.AddReplica(context.Background(), "alpha", 1); err != nil {
		t.Fatal(err)
	}

	viewA, viewB := rtA.Topology().View(), rtB.Topology().View()
	placeA, placeB := viewA.Placement(), viewB.Placement()
	if !samePlacement(placeA, placeB) {
		t.Fatalf("placements diverge:\nfile-declared: %v\nruntime-added: %v", placeA, placeB)
	}

	// Placement → NewMapFromPlacement round-trip.
	m2, err := NewMapFromPlacement(placeB, viewB.Shards())
	if err != nil {
		t.Fatal(err)
	}
	if !samePlacement(m2.Placement(), placeB) {
		t.Fatalf("NewMapFromPlacement round-trip diverges: %v != %v", m2.Placement(), placeB)
	}

	// Placement → shard-map file → ApplyOverrides round-trip.
	var lines []string
	for _, doc := range viewB.Docs() {
		ids := make([]string, 0, 2)
		for _, id := range viewB.Owners(doc) {
			ids = append(ids, fmt.Sprint(id))
		}
		lines = append(lines, fmt.Sprintf("%s: %s", doc, strings.Join(ids, ",")))
	}
	sort.Strings(lines)
	m3, err := NewMap(viewB.Docs(), viewB.Shards())
	if err != nil {
		t.Fatal(err)
	}
	if err := m3.ApplyOverrides(strings.Join(lines, "\n")); err != nil {
		t.Fatal(err)
	}
	if !samePlacement(m3.Placement(), placeB) {
		t.Fatalf("shard-map file round-trip diverges: %v != %v", m3.Placement(), placeB)
	}

	// /admin/shards reports the per-shard document lists identically.
	topoA, topoB := getTopology(t, tsA.URL), getTopology(t, tsB.URL)
	for id := range topoA.Shards {
		a, b := topoA.Shards[id].Docs, topoB.Shards[id].Docs
		if len(a) != len(b) {
			t.Fatalf("shard %d docs diverge: file-declared %v, runtime-added %v", id, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("shard %d docs diverge: file-declared %v, runtime-added %v", id, a, b)
			}
		}
	}
}

// samePlacement compares two placement tables exactly.
func samePlacement(a, b map[string][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for doc, ids := range a {
		other, ok := b[doc]
		if !ok || len(other) != len(ids) {
			return false
		}
		for i := range ids {
			if ids[i] != other[i] {
				return false
			}
		}
	}
	return true
}
