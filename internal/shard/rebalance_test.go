package shard

// Tests for the autonomous rebalancer: table-driven hysteresis units
// over a fake tier and a fake clock (an oscillating load produces at
// most one placement action per cooldown window, a sub-threshold
// imbalance produces none), the kill-the-source-mid-copy fault
// injection (the rebalancer aborts cleanly and retries next tick),
// and the end-to-end convergence paths over a real embedded tier —
// replica-add for a dominating hot document, migrate for an
// aggregate-hot shard — with the /admin/rebalancer status surface.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"
)

// fakeTier implements tierControl over a real Topology so rebalancer
// decisions mutate placement exactly like the live protocols do — just
// without copying any bytes. failErr, when set, makes every action
// fail without touching the topology (the dead-worker stand-in).
type fakeTier struct {
	topo    *Topology
	live    []int
	loads   []map[loadKey]int64 // one window per tick, then empty
	tick    int
	failErr error
	acts    []RebalanceAction
}

func (f *fakeTier) view() *View       { return f.topo.View() }
func (f *fakeTier) liveShards() []int { return f.live }

func (f *fakeTier) takeLoad() map[loadKey]int64 {
	i := f.tick
	f.tick++
	if i < len(f.loads) {
		return f.loads[i]
	}
	return nil
}

func (f *fakeTier) place(ctx context.Context, doc string, gain, lose int) (MigrateReport, error) {
	kind := ActionMigrate
	switch {
	case lose == noShard:
		kind = ActionReplicate
	case gain == noShard:
		kind = ActionDrop
	}
	f.acts = append(f.acts, RebalanceAction{Kind: kind, Doc: doc, From: lose, To: gain})
	if f.failErr != nil {
		return MigrateReport{}, f.failErr
	}
	c, err := f.topo.Register(doc, gain, lose)
	if err != nil {
		return MigrateReport{}, err
	}
	defer f.topo.Release(c)
	drainBelow, err := f.topo.Publish(c)
	return MigrateReport{Epoch: drainBelow + 1}, err
}

// newFakeTier builds two shards with "a" on 0 and "b" on 1, both live.
func newFakeTier(t *testing.T) *fakeTier {
	t.Helper()
	m, err := NewMapFromPlacement(map[string][]int{"a": {0}, "b": {1}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	return &fakeTier{topo: NewTopology(m), live: []int{0, 1}}
}

// manualRebalancer builds a rebalancer over the tier with a fake clock
// starting at t0; the returned advance function moves the clock.
func manualRebalancer(t *testing.T, tier tierControl, opt RebalancerOptions) (*Rebalancer, func(time.Duration)) {
	t.Helper()
	rb, err := newRebalancer(tier, opt)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	clock := time.Unix(0, 0)
	rb.now = func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return clock
	}
	return rb, func(d time.Duration) {
		mu.Lock()
		clock = clock.Add(d)
		mu.Unlock()
	}
}

// TestRebalancerHysteresis is the satellite's table: synthetic load
// signals driven tick by tick through a fake clock, asserting the
// action budget the hysteresis promises — never more than one
// placement action per cooldown window, none at all below the
// threshold — across window/decay/threshold combinations.
func TestRebalancerHysteresis(t *testing.T) {
	// oscillate flips a hot 100-query window between (a, shard 0) and
	// (b, shard 1) every tick — the classic ping-pong bait.
	oscillate := func(tick int) map[loadKey]int64 {
		if tick%2 == 0 {
			return map[loadKey]int64{{doc: "a", shard: 0}: 100}
		}
		return map[loadKey]int64{{doc: "b", shard: 1}: 100}
	}
	cases := []struct {
		name      string
		window    time.Duration // tick period: how far the clock advances per tick
		cooldown  time.Duration
		threshold float64
		decay     float64
		ticks     int
		loadFor   func(tick int) map[loadKey]int64
		// minActions/maxActions bound the successful placement actions.
		minActions, maxActions int64
	}{
		{
			name:   "oscillating load, one action per cooldown window",
			window: time.Second, cooldown: 5 * time.Second, threshold: 8, decay: 0.5,
			ticks: 20, loadFor: oscillate,
			// Actions can fire at t=0s,5s,10s,15s at the earliest.
			minActions: 1, maxActions: 4,
		},
		{
			name:   "oscillating load, long cooldown pins a single action",
			window: time.Second, cooldown: time.Hour, threshold: 8, decay: 0.5,
			ticks: 50, loadFor: oscillate,
			minActions: 1, maxActions: 1,
		},
		{
			name:   "oscillating load, fast decay still respects the cooldown",
			window: 100 * time.Millisecond, cooldown: time.Second, threshold: 4, decay: 0.1,
			ticks: 40, loadFor: oscillate,
			// 40 ticks span 3.9s: actions at t=0,1s,2s,3s at the earliest.
			minActions: 1, maxActions: 4,
		},
		{
			name:   "sub-threshold imbalance produces no action",
			window: time.Second, cooldown: 5 * time.Second, threshold: 8, decay: 0.5,
			ticks: 20,
			// Steady 5-vs-3: the decayed signals converge to 10 vs 6, an
			// imbalance of 4 — below the threshold forever.
			loadFor: func(int) map[loadKey]int64 {
				return map[loadKey]int64{{doc: "a", shard: 0}: 5, {doc: "b", shard: 1}: 3}
			},
			minActions: 0, maxActions: 0,
		},
		{
			name:   "balanced load produces no action",
			window: 100 * time.Millisecond, cooldown: time.Second, threshold: 1, decay: 0.5,
			ticks: 20,
			loadFor: func(int) map[loadKey]int64 {
				return map[loadKey]int64{{doc: "a", shard: 0}: 50, {doc: "b", shard: 1}: 50}
			},
			minActions: 0, maxActions: 0,
		},
		{
			name:   "idle tier produces no action",
			window: time.Second, cooldown: 5 * time.Second, threshold: 8, decay: 0.5,
			ticks: 10, loadFor: func(int) map[loadKey]int64 { return nil },
			minActions: 0, maxActions: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tier := newFakeTier(t)
			tier.loads = make([]map[loadKey]int64, tc.ticks)
			for i := range tier.loads {
				tier.loads[i] = tc.loadFor(i)
			}
			rb, advance := manualRebalancer(t, tier, RebalancerOptions{
				Cooldown: tc.cooldown, Threshold: tc.threshold, Decay: tc.decay,
			})
			var actionTimes []time.Time
			for i := 0; i < tc.ticks; i++ {
				if rb.Tick(context.Background()) {
					actionTimes = append(actionTimes, rb.now())
				}
				advance(tc.window)
			}
			st := rb.Status()
			if st.Actions < tc.minActions || st.Actions > tc.maxActions {
				t.Fatalf("%d actions over %d ticks (%+v), want [%d, %d]", st.Actions, tc.ticks, tier.acts, tc.minActions, tc.maxActions)
			}
			if st.Ticks != int64(tc.ticks) {
				t.Fatalf("ticks = %d, want %d", st.Ticks, tc.ticks)
			}
			if st.Failures != 0 {
				t.Fatalf("unexpected failures: %d (%s)", st.Failures, st.LastReason)
			}
			// The precise hysteresis claim: consecutive successful actions
			// are at least one cooldown apart.
			for i := 1; i < len(actionTimes); i++ {
				if gap := actionTimes[i].Sub(actionTimes[i-1]); gap < tc.cooldown {
					t.Fatalf("actions %d and %d only %v apart, want >= %v", i-1, i, gap, tc.cooldown)
				}
			}
		})
	}
}

// TestRebalancerReleaseFadingBurst pins the release rule's hysteresis
// under the classic bait: a burst hot enough to earn a replica, then
// silence. The action sequence must be exactly one replicate followed —
// only after the decayed signal has sat below ReleaseThreshold for a
// full cooldown window — by exactly one drop of the replica the burst
// added, and then nothing for as long as the tier stays quiet. A load
// level that merely fades must never make the replica set flap.
func TestRebalancerReleaseFadingBurst(t *testing.T) {
	tier := newFakeTier(t)
	const ticks = 40
	tier.loads = make([]map[loadKey]int64, ticks)
	for i := 0; i < 3; i++ {
		tier.loads[i] = map[loadKey]int64{{doc: "a", shard: 0}: 100}
	}
	const cooldown = 5 * time.Second
	rb, advance := manualRebalancer(t, tier, RebalancerOptions{
		Cooldown: cooldown, Threshold: 8, Decay: 0.5, ReleaseThreshold: 2,
	})
	var kinds []string
	var actionTimes []time.Time
	for i := 0; i < ticks; i++ {
		if rb.Tick(context.Background()) {
			kinds = append(kinds, rb.Status().LastAction.Kind)
			actionTimes = append(actionTimes, rb.now())
		}
		advance(time.Second)
	}
	if len(kinds) != 2 || kinds[0] != ActionReplicate || kinds[1] != ActionDrop {
		t.Fatalf("actions = %v (attempts %+v), want exactly [replicate drop-replica]", kinds, tier.acts)
	}
	// The drop released the copy the burst added (shard 1 — zero
	// residual signal), not the original.
	if got := tier.topo.View().Owners("a"); len(got) != 1 || got[0] != 0 {
		t.Fatalf("owners after release = %v, want [0]", got)
	}
	if gap := actionTimes[1].Sub(actionTimes[0]); gap < cooldown {
		t.Fatalf("drop fired %v after the add, want >= the %v cooldown", gap, cooldown)
	}
	st := rb.Status()
	if st.ReplicasAdded != 1 || st.ReplicasDropped != 1 || st.Migrations != 0 || st.Failures != 0 {
		t.Fatalf("status after fading burst = %+v", st)
	}
	if st.LastAction == nil || st.LastAction.Kind != ActionDrop || st.LastAction.To != 1 || st.LastAction.Err != "" {
		t.Fatalf("last action = %+v, want a clean drop from shard 1", st.LastAction)
	}
	// A fresh burst after the release behaves like the first one: the
	// hysteresis band resets completely instead of remembering the drop.
	tier.loads = append(tier.loads, map[loadKey]int64{{doc: "a", shard: 0}: 100})
	if !rb.Tick(context.Background()) {
		t.Fatalf("burst after release did not act: %s", rb.Status().LastReason)
	}
	if st := rb.Status(); st.ReplicasAdded != 2 || st.ReplicasDropped != 1 {
		t.Fatalf("status after second burst = %+v", st)
	}
}

// TestRebalancerFailureRetriesNextTick: a failed action must not
// engage the cooldown — the rebalancer re-decides and retries on every
// subsequent tick until the action lands.
func TestRebalancerFailureRetriesNextTick(t *testing.T) {
	tier := newFakeTier(t)
	tier.failErr = errors.New("target unreachable")
	tier.loads = []map[loadKey]int64{
		{{doc: "a", shard: 0}: 100},
	}
	rb, advance := manualRebalancer(t, tier, RebalancerOptions{
		Cooldown: time.Hour, Threshold: 8, Decay: 0.5,
	})
	for i := 0; i < 3; i++ {
		if rb.Tick(context.Background()) {
			t.Fatalf("tick %d reported success while the tier is failing", i)
		}
		advance(time.Second)
	}
	if st := rb.Status(); st.Failures != 3 || st.Actions != 0 || len(tier.acts) != 3 {
		t.Fatalf("failures=%d actions=%d attempts=%d, want 3/0/3", st.Failures, st.Actions, len(tier.acts))
	}
	if got := rb.Status().LastAction; got == nil || got.Err == "" {
		t.Fatalf("last action = %+v, want a recorded failure", got)
	}
	// The moment the tier recovers, the very next tick lands the action.
	tier.failErr = nil
	if !rb.Tick(context.Background()) {
		t.Fatalf("tick after recovery did not act: %s", rb.Status().LastReason)
	}
	if st := rb.Status(); st.Actions != 1 || st.ReplicasAdded != 1 {
		t.Fatalf("status after recovery = %+v", st)
	}
	if got := tier.topo.View().Owners("a"); len(got) != 2 {
		t.Fatalf("owners after recovery = %v, want a replica pair", got)
	}
}

// TestRebalancerReplicateVsMigrateRule pins the decision rule: a hot
// document that dominates its shard's load gets a replica (moving it
// would only move the hot spot); a shard hot in aggregate has its
// hottest document migrated instead.
func TestRebalancerReplicateVsMigrateRule(t *testing.T) {
	t.Run("dominating document replicates", func(t *testing.T) {
		tier := newFakeTier(t)
		tier.loads = []map[loadKey]int64{{{doc: "a", shard: 0}: 100}}
		rb, _ := manualRebalancer(t, tier, RebalancerOptions{Threshold: 8, Decay: 0.5})
		if !rb.Tick(context.Background()) {
			t.Fatalf("no action: %s", rb.Status().LastReason)
		}
		if len(tier.acts) != 1 || tier.acts[0].Kind != ActionReplicate {
			t.Fatalf("acts = %+v, want one replicate", tier.acts)
		}
		if got := tier.topo.View().Owners("a"); len(got) != 2 || got[0] != 0 || got[1] != 1 {
			t.Fatalf("owners = %v, want [0 1]", got)
		}
	})
	t.Run("aggregate-hot shard migrates", func(t *testing.T) {
		m, err := NewMapFromPlacement(map[string][]int{"a": {0}, "b": {0}}, 2)
		if err != nil {
			t.Fatal(err)
		}
		tier := &fakeTier{topo: NewTopology(m), live: []int{0, 1}}
		// Two equally hot documents on shard 0: the hottest holds half
		// the shard's load, under the 0.75 replicate share.
		tier.loads = []map[loadKey]int64{{
			{doc: "a", shard: 0}: 50,
			{doc: "b", shard: 0}: 50,
		}}
		rb, _ := manualRebalancer(t, tier, RebalancerOptions{Threshold: 8, Decay: 0.5})
		if !rb.Tick(context.Background()) {
			t.Fatalf("no action: %s", rb.Status().LastReason)
		}
		// Deterministic tie-break picks "a"; it moves rather than fans out.
		if len(tier.acts) != 1 || tier.acts[0].Kind != ActionMigrate || tier.acts[0].Doc != "a" {
			t.Fatalf("acts = %+v, want migrate of a", tier.acts)
		}
		if got := tier.topo.View().Owners("a"); len(got) != 1 || got[0] != 1 {
			t.Fatalf("owners = %v, want [1]", got)
		}
	})
	t.Run("max replicas falls back to migrate", func(t *testing.T) {
		tier := newFakeTier(t)
		tier.loads = []map[loadKey]int64{{{doc: "a", shard: 0}: 100}}
		rb, _ := manualRebalancer(t, tier, RebalancerOptions{Threshold: 8, Decay: 0.5, MaxReplicas: 1})
		if !rb.Tick(context.Background()) {
			t.Fatalf("no action: %s", rb.Status().LastReason)
		}
		if len(tier.acts) != 1 || tier.acts[0].Kind != ActionMigrate {
			t.Fatalf("acts = %+v, want one migrate", tier.acts)
		}
	})
}

// spawnRebalancedTier builds an embedded tier with a manual-tick
// rebalancer attached (cooldown long enough that only explicit clock
// control can reopen the gate).
func spawnRebalancedTier(t *testing.T, overrides string, opt RebalancerOptions) ([]*EmbeddedShard, *Router, *Rebalancer, string) {
	t.Helper()
	shards, rt, ts := spawnTier(t, testDocs, 2, overrides)
	rb, err := NewRebalancer(rt, opt)
	if err != nil {
		t.Fatal(err)
	}
	return shards, rt, rb, ts.URL
}

// TestRebalancerKillSourceMidCopy is the fault injection the ISSUE
// names: the only source of the hot document dies before the tick, so
// the AddReplica copy fails at the fetch — the rebalancer aborts
// cleanly (no epoch change, no pending state, no cooldown) and retries
// on the next tick.
func TestRebalancerKillSourceMidCopy(t *testing.T) {
	shards, rt, rb, base := spawnRebalancedTier(t, "alpha: 0\nbeta: 1\ngamma: 1\n",
		RebalancerOptions{Threshold: 1, Cooldown: time.Hour})
	// Build the hot signal through real routed queries, then kill the
	// document's only owner.
	for i := 0; i < 20; i++ {
		if resp, _ := post(t, base+"/query?doc=alpha", testQueries[0]); resp.StatusCode != http.StatusOK {
			t.Fatalf("warm-up query %d failed: %d", i, resp.StatusCode)
		}
	}
	before := getTopology(t, base)
	shards[0].Close() // the hot document's only copy

	for i := 1; i <= 2; i++ {
		if rb.Tick(context.Background()) {
			t.Fatalf("tick %d acted with the source dead", i)
		}
		st := rb.Status()
		if st.Failures != int64(i) {
			t.Fatalf("tick %d: failures = %d, want %d (one fresh attempt per tick)", i, st.Failures, i)
		}
		if st.LastAction == nil || st.LastAction.Kind != ActionReplicate || st.LastAction.Err == "" {
			t.Fatalf("tick %d: last action = %+v, want a failed replicate", i, st.LastAction)
		}
		if st.CooldownRemaining != "" {
			t.Fatalf("tick %d: a failed action engaged the cooldown (%s)", i, st.CooldownRemaining)
		}
		after := getTopology(t, base)
		if after.Epoch != before.Epoch || len(after.Pending) != 0 {
			t.Fatalf("tick %d: failed copy mutated the topology: %+v", i, after)
		}
		if got := rt.Topology().View().Owners("alpha"); len(got) != 1 || got[0] != 0 {
			t.Fatalf("tick %d: owners = %v, want [0]", i, got)
		}
	}
}

// TestRebalancerConvergesAndFansOut is the end-to-end convergence
// path: real hot traffic through the router builds the signal, one
// tick replicates the dominating document onto the cold shard, the
// next burst fans out across both replicas byte-identically, and the
// cooldown blocks immediate further actions. /admin/rebalancer
// reports all of it.
func TestRebalancerConvergesAndFansOut(t *testing.T) {
	_, rt, rb, base := spawnRebalancedTier(t, "alpha: 0\nbeta: 1\ngamma: 1\n",
		RebalancerOptions{Threshold: 1, Cooldown: time.Hour})
	_, wantBody := post(t, base+"/query?doc=alpha", testQueries[0])
	for i := 0; i < 30; i++ {
		post(t, base+"/query?doc=alpha", testQueries[0])
	}

	if !rb.Tick(context.Background()) {
		t.Fatalf("tick did not act: %s", rb.Status().LastReason)
	}
	if got := rt.Topology().View().Owners("alpha"); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("owners after convergence = %v, want [0 1]", got)
	}
	st := rb.Status()
	if st.Actions != 1 || st.ReplicasAdded != 1 || st.Migrations != 0 {
		t.Fatalf("status after convergence = %+v", st)
	}
	if st.LastAction == nil || st.LastAction.Kind != ActionReplicate || st.LastAction.Doc != "alpha" || st.LastAction.Err != "" {
		t.Fatalf("last action = %+v, want a clean replicate of alpha", st.LastAction)
	}

	// Within the cooldown the rebalancer must sit still, whatever the
	// signal says.
	for i := 0; i < 30; i++ {
		post(t, base+"/query?doc=alpha", testQueries[0])
	}
	if rb.Tick(context.Background()) {
		t.Fatal("tick acted inside the cooldown window")
	}
	if st := rb.Status(); st.CooldownRemaining == "" || st.Actions != 1 {
		t.Fatalf("status inside cooldown = %+v", st)
	}

	// The burst now fans out across both replicas, byte-identically.
	seen := make(map[string]bool)
	var seenMu sync.Mutex
	for wave := 0; wave < 3; wave++ {
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, body := post(t, base+"/query?doc=alpha", testQueries[0])
				if resp.StatusCode != http.StatusOK || body != wantBody {
					errs <- fmt.Sprintf("status %d, identical %v", resp.StatusCode, body == wantBody)
					return
				}
				seenMu.Lock()
				seen[resp.Header.Get("X-Flux-Shard")] = true
				seenMu.Unlock()
			}()
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
	}
	if !seen["0"] || !seen["1"] {
		t.Fatalf("burst did not fan out across both replicas: shards seen %v", seen)
	}

	// /admin/rebalancer reports the control plane's state over HTTP.
	resp, err := http.Get(base + "/admin/rebalancer")
	if err != nil {
		t.Fatal(err)
	}
	var got RebalancerStatus
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/admin/rebalancer: status %d, err %v", resp.StatusCode, err)
	}
	if !got.Enabled || got.ReplicasAdded != 1 || got.Interval != "manual" || len(got.Signal) == 0 {
		t.Fatalf("/admin/rebalancer = %+v", got)
	}
	if got.Signal[0].Doc != "alpha" {
		t.Fatalf("hottest signal entry = %+v, want alpha", got.Signal[0])
	}
}

// TestRebalancerStatusWithoutRebalancer: a router without an attached
// rebalancer answers /admin/rebalancer with enabled=false (and only
// one rebalancer may ever attach).
func TestRebalancerStatusWithoutRebalancer(t *testing.T) {
	_, rt, ts := spawnTier(t, testDocs, 2, "")
	resp, err := http.Get(ts.URL + "/admin/rebalancer")
	if err != nil {
		t.Fatal(err)
	}
	var got RebalancerStatus
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/admin/rebalancer: status %d, err %v", resp.StatusCode, err)
	}
	if got.Enabled {
		t.Fatalf("rebalancer reported enabled on a plain router: %+v", got)
	}
	if _, err := NewRebalancer(rt, RebalancerOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewRebalancer(rt, RebalancerOptions{}); err == nil {
		t.Fatal("second NewRebalancer on the same router succeeded")
	}
}

// TestRebalancerAttachedAfterTrafficStartsEmpty: a router without a
// rebalancer keeps no load signal — nothing would ever drain it — so a
// rebalancer attached after traffic starts from an empty window instead
// of folding every query since router start into its first tick.
func TestRebalancerAttachedAfterTrafficStartsEmpty(t *testing.T) {
	_, rt, ts := spawnTier(t, testDocs, 2, "alpha: 0\nbeta: 1\ngamma: 1\n")
	for i := 0; i < 20; i++ {
		if resp, _ := post(t, ts.URL+"/query?doc=alpha", testQueries[0]); resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d failed: %d", i, resp.StatusCode)
		}
	}
	rb, err := NewRebalancer(rt, RebalancerOptions{Threshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rb.Tick(context.Background()) {
		t.Fatalf("first tick acted on pre-attach traffic: %+v", rb.Status().LastAction)
	}
	if st := rb.Status(); len(st.Signal) != 0 {
		t.Fatalf("signal after attach = %+v, want empty", st.Signal)
	}
}

// TestRebalancerBackgroundLoop: with a positive interval the loop runs
// on its own — hot traffic converges to a replica pair without any
// manual ticking — and Close stops it.
func TestRebalancerBackgroundLoop(t *testing.T) {
	_, rt, _, base := spawnRebalancedTier(t, "alpha: 0\nbeta: 1\ngamma: 1\n",
		RebalancerOptions{Interval: 5 * time.Millisecond, Threshold: 1, Cooldown: time.Hour})
	deadline := time.Now().Add(5 * time.Second)
	for {
		for i := 0; i < 5; i++ {
			post(t, base+"/query?doc=alpha", testQueries[0])
		}
		if owners := rt.Topology().View().Owners("alpha"); len(owners) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background loop never replicated alpha: %+v", rt.Topology().View().Owners("alpha"))
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Router.Close also closes the attached rebalancer (the tier's
	// cleanup runs it again, which must be safe).
	rt.Close()
}

// TestRebalancerOptionValidation: bad knobs are rejected up front.
func TestRebalancerOptionValidation(t *testing.T) {
	tier := newFakeTier(t)
	for _, opt := range []RebalancerOptions{
		{Decay: 1},
		{Decay: -0.5},
		{Threshold: -1},
		{ReplicateShare: 2},
		{ReplicateShare: -0.5},
		{ReleaseThreshold: -1},
		{Threshold: 8, ReleaseThreshold: 8},
		{Threshold: 8, ReleaseThreshold: 9},
	} {
		if _, err := newRebalancer(tier, opt); err == nil {
			t.Errorf("options %+v accepted", opt)
		}
	}
}
