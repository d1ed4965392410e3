package shard

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
)

// topo3 builds a topology over three documents pinned to known shards:
// alpha on 0, beta on 1, gamma replicated on 0 and 2.
func topo3(t *testing.T) *Topology {
	t.Helper()
	m, err := NewMapFromPlacement(map[string][]int{
		"alpha": {0},
		"beta":  {1},
		"gamma": {0, 2},
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	return NewTopology(m)
}

// TestTopologyMigrateProtocol walks a move — a change that gains the
// target and loses the source — through the machine: Register leaves
// routing untouched, Publish swaps the owner in one epoch and holds the
// change draining, Release frees the document. Old views stay frozen.
func TestTopologyMigrateProtocol(t *testing.T) {
	topo := topo3(t)
	v1 := topo.View()
	if v1.Epoch() != 1 {
		t.Fatalf("initial epoch = %d, want 1", v1.Epoch())
	}

	c, err := topo.Register("alpha", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := topo.View().Owners("alpha"); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("owners changed before publish: %v", got)
	}
	if p := topo.Pending(); len(p) != 1 || p[0].State != "copying" || p[0].Doc != "alpha" || p[0].From != 0 || p[0].To != 1 {
		t.Fatalf("pending = %+v, want alpha 0->1 copying", p)
	}

	drainUpTo, err := topo.Publish(c)
	if err != nil {
		t.Fatal(err)
	}
	if drainUpTo != 1 {
		t.Fatalf("drain epoch = %d, want 1", drainUpTo)
	}
	v2 := topo.View()
	if v2.Epoch() != 2 {
		t.Fatalf("post-publish epoch = %d, want 2", v2.Epoch())
	}
	if got := v2.Owners("alpha"); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("post-publish owners = %v, want [1]", got)
	}
	// The pre-publish view is immutable — a request that took it keeps
	// routing to the source.
	if got := v1.Owners("alpha"); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("old view mutated: %v", got)
	}
	if p := topo.Pending(); len(p) != 1 || p[0].State != "draining" || p[0].DrainEpoch != 1 {
		t.Fatalf("pending = %+v, want alpha draining from epoch 1", p)
	}
	// The slot is held through the drain: nothing else may change alpha.
	if _, err := topo.Register("alpha", 0, noShard); !errors.Is(err, ErrMigrationPending) {
		t.Fatalf("add back onto the source mid-drain: %v, want ErrMigrationPending", err)
	}

	topo.Release(c)
	if p := topo.Pending(); len(p) != 0 {
		t.Fatalf("pending after release = %+v", p)
	}
	// The document may move again.
	if _, err := topo.Register("alpha", 2, 1); err != nil {
		t.Fatalf("second move refused: %v", err)
	}
}

// TestTopologyMigrateReplicated: moving one replica of a replicated
// document swaps only that replica.
func TestTopologyMigrateReplicated(t *testing.T) {
	topo := topo3(t)
	c, err := topo.Register("gamma", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := topo.Publish(c); err != nil {
		t.Fatal(err)
	}
	if got := topo.View().Owners("gamma"); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("owners = %v, want [1 2]", got)
	}
}

// TestTopologyMigrateValidation: every bad change is refused with a
// named reason and leaves the topology untouched.
func TestTopologyMigrateValidation(t *testing.T) {
	topo := topo3(t)
	cases := []struct {
		name       string
		doc        string
		gain, lose int
	}{
		{"unknown doc", "nope", 1, 0},
		{"not an owner", "alpha", 2, 1},
		{"already an owner", "gamma", 2, 0},
		{"source out of range", "alpha", 1, -2},
		{"target out of range", "alpha", 3, 0},
		{"self move", "alpha", 0, 0},
		{"nothing to change", "alpha", noShard, noShard},
		{"drop the last owner", "alpha", noShard, 0},
	}
	for _, tc := range cases {
		if _, err := topo.Register(tc.doc, tc.gain, tc.lose); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if topo.Epoch() != 1 || len(topo.Pending()) != 0 {
		t.Fatalf("failed validations mutated the topology: epoch %d, pending %v", topo.Epoch(), topo.Pending())
	}

	// Only one change per document at a time.
	if _, err := topo.Register("alpha", 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := topo.Register("alpha", 2, 0); !errors.Is(err, ErrMigrationPending) {
		t.Fatalf("concurrent move of one doc: err = %v, want ErrMigrationPending", err)
	}
	// Distinct documents may change concurrently.
	if _, err := topo.Register("beta", 0, 1); err != nil {
		t.Fatalf("concurrent move of another doc refused: %v", err)
	}
}

// TestTopologyAbort: releasing a change before Publish changes nothing;
// releasing one after Publish keeps its epoch — there is no rollback
// epoch — and a released change cannot transition again or free a
// later change of the same document.
func TestTopologyAbort(t *testing.T) {
	topo := topo3(t)
	c, err := topo.Register("alpha", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	topo.Release(c)
	if topo.Epoch() != 1 || len(topo.Pending()) != 0 {
		t.Fatalf("release before publish left epoch %d, pending %v", topo.Epoch(), topo.Pending())
	}
	if _, err := topo.Publish(c); err == nil {
		t.Error("publish after release accepted")
	}

	c, err = topo.Register("alpha", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := topo.Publish(c); err != nil {
		t.Fatal(err)
	}
	if _, err := topo.Publish(c); err == nil {
		t.Error("double publish accepted")
	}
	topo.Release(c)
	if topo.Epoch() != 2 {
		t.Fatalf("epoch after publish and release = %d, want 2 (no rollback)", topo.Epoch())
	}
	if got := topo.View().Owners("alpha"); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("owners after release = %v, want the published [1]", got)
	}
	// A stale release cannot free a later change of the document.
	next, err := topo.Register("alpha", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	topo.Release(c)
	if _, err := topo.Register("alpha", 0, noShard); !errors.Is(err, ErrMigrationPending) {
		t.Fatalf("stale release freed the pending change: %v", err)
	}
	topo.Release(next)
}

// TestMapOwnersAliasing: Owners returns a copy — mutating the result
// must not corrupt the map (the bug this PR fixes: the internal slice
// used to be returned directly).
func TestMapOwnersAliasing(t *testing.T) {
	m, err := NewMapFromPlacement(map[string][]int{"doc": {0, 1}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	got := m.Owners("doc")
	got[0] = 2
	if fresh := m.Owners("doc"); !reflect.DeepEqual(fresh, []int{0, 1}) {
		t.Fatalf("mutating Owners' result corrupted the map: %v", fresh)
	}
	// Docs and DocsFor build fresh slices; verify the same property.
	docs := m.Docs()
	docs[0] = "mutated"
	if fresh := m.Docs(); !reflect.DeepEqual(fresh, []string{"doc"}) {
		t.Fatalf("mutating Docs' result corrupted the map: %v", fresh)
	}
	docsFor := m.DocsFor(0)
	docsFor[0] = "mutated"
	if fresh := m.DocsFor(0); !reflect.DeepEqual(fresh, []string{"doc"}) {
		t.Fatalf("mutating DocsFor's result corrupted the map: %v", fresh)
	}
}

// TestEpochTrackerDrain: the drain barrier waits for in-flight queries
// under old epochs, ignores newer epochs, and honors cancellation.
func TestEpochTrackerDrain(t *testing.T) {
	var tr epochTracker

	// No in-flight work: drains immediately.
	if err := tr.wait(context.Background(), 5); err != nil {
		t.Fatal(err)
	}

	tr.enter(1)
	tr.enter(2) // newer epoch; must not block a drain of <= 1
	done := make(chan error, 1)
	go func() { done <- tr.wait(context.Background(), 1) }()
	select {
	case err := <-done:
		t.Fatalf("drain returned with epoch-1 work in flight: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	tr.exit(1)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("drain never released after the last epoch-1 query exited")
	}
	tr.exit(2)

	// Cancellation unblocks a stuck drain and deregisters the waiter.
	tr.enter(3)
	ctx, cancel := context.WithCancel(context.Background())
	go func() { done <- tr.wait(ctx, 3) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled drain returned %v", err)
	}
	tr.exit(3) // must not panic on the removed waiter
}

// TestEpochTrackerConcurrent hammers the tracker from many goroutines
// under -race while drains run against a moving frontier.
func TestEpochTrackerConcurrent(t *testing.T) {
	var tr epochTracker
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				e := int64(1 + (g+i)%4)
				tr.enter(e)
				tr.exit(e)
			}
		}(g)
	}
	for d := 0; d < 4; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			tr.wait(ctx, 2)
		}()
	}
	wg.Wait()
	if err := tr.wait(context.Background(), 100); err != nil {
		t.Fatalf("tracker not idle after the storm: %v", err)
	}
}
