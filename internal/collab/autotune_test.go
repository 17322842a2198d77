package collab

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"imtao/internal/obs"
	"imtao/internal/routing"
)

// eventCapture records obs events for assertion.
type eventCapture struct {
	mu     sync.Mutex
	events []string
	fields []map[string]any
}

func (c *eventCapture) Event(name string, fields ...obs.Field) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, name)
	m := make(map[string]any, len(fields))
	for _, f := range fields {
		m[f.Key] = f.Value
	}
	c.fields = append(c.fields, m)
}

func (c *eventCapture) find(name string) (map[string]any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, e := range c.events {
		if e == name {
			return c.fields[i], true
		}
	}
	return nil, false
}

// TestShardAutoPicksFromLadder: ShardAuto probes the candidate ladder,
// records the decision in the report, and runs the game at the picked count
// — bit-identically to requesting that count explicitly.
func TestShardAutoPicksFromLadder(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	in := separatedInstance(rng, 4)
	p1 := phase1(in)

	got, rep := RunSharded(in, p1, ShardConfig{Config: seqConfig(), Shards: ShardAuto, Seed: 7})
	if rep.ShardsRequested != ShardAuto {
		t.Fatalf("ShardsRequested = %d, want ShardAuto (%d)", rep.ShardsRequested, ShardAuto)
	}
	if rep.Auto == nil {
		t.Fatal("auto run left Report.Auto nil")
	}
	if rep.Auto.Parallelism != autotuneRefParallelism {
		t.Fatalf("modeled parallelism %d, want the fixed reference %d when ShardParallelism is 0",
			rep.Auto.Parallelism, autotuneRefParallelism)
	}
	if len(rep.Auto.Ladder) == 0 {
		t.Fatal("empty probe ladder")
	}
	inLadder := false
	bestCost := rep.Auto.Ladder[0].Cost
	for _, pr := range rep.Auto.Ladder {
		if pr.Cost < bestCost {
			bestCost = pr.Cost
		}
		if pr.Shards == rep.Auto.Picked {
			inLadder = true
			if pr.Cost != bestCost {
				// The first probe at the minimum cost wins; by the time we
				// see the picked entry its cost must be the running min.
				t.Fatalf("picked count %d does not carry the minimal cost", rep.Auto.Picked)
			}
		}
		if pr.Cost <= 0 {
			t.Fatalf("probe s%d has non-positive cost %g", pr.Shards, pr.Cost)
		}
	}
	if !inLadder {
		t.Fatalf("picked count %d not in the probe ladder %+v", rep.Auto.Picked, rep.Auto.Ladder)
	}
	if err := routing.SolutionFeasible(in, got.Solution); err != nil {
		t.Fatal(err)
	}
	if err := VerifyEquilibrium(in, got.Solution, nil); err != nil {
		t.Fatal(err)
	}

	// Determinism: the pick and the full outcome repeat.
	again, rep2 := RunSharded(in, p1, ShardConfig{Config: seqConfig(), Shards: ShardAuto, Seed: 7})
	rep.ShardWall, rep2.ShardWall = nil, nil
	if !reflect.DeepEqual(rep.Auto, rep2.Auto) || !reflect.DeepEqual(got.Solution, again.Solution) {
		t.Fatal("auto run not deterministic")
	}

	// The auto run IS the explicit run at the picked count.
	explicit, erep := RunSharded(in, p1, ShardConfig{Config: seqConfig(), Shards: rep.Auto.Picked, Seed: 7})
	if !reflect.DeepEqual(got.Solution, explicit.Solution) {
		t.Fatalf("auto(picked=%d) diverged from the explicit run", rep.Auto.Picked)
	}
	if rep.Shards != erep.Shards {
		t.Fatalf("effective shards %d vs explicit %d", rep.Shards, erep.Shards)
	}

	// A caller-set ShardParallelism flows into the model instead of the
	// reference.
	_, rep3 := RunSharded(in, p1, ShardConfig{
		Config: seqConfig(), Shards: ShardAuto, Seed: 7, ShardParallelism: 3,
	})
	if rep3.Auto == nil || rep3.Auto.Parallelism != 3 {
		t.Fatalf("ShardParallelism=3 not reflected in the model: %+v", rep3.Auto)
	}
}

// TestShardAutoIneligibleFallback: configurations the sharded engine falls
// back to the unsharded game for (here RBDC's random recipients) must do so
// under ShardAuto too, without probing.
func TestShardAutoIneligibleFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	in := randomInstance(rng, 4, 16, 40)
	p1 := phase1(in)

	cfg := seqConfig()
	cfg.Recipient = RandomRecipient
	cfg.Rng = rand.New(rand.NewSource(9))
	_, rep := RunSharded(in, p1, ShardConfig{Config: cfg, Shards: ShardAuto, Seed: 1})
	if rep.Shards != 1 || rep.ShardsRequested != ShardAuto {
		t.Fatalf("ineligible auto run: %+v", rep)
	}
	if rep.Auto != nil {
		t.Fatal("ineligible run must not probe")
	}
}

// TestShardClampSurfaced (satellite): requesting more than 64 shards clamps
// to the interference-word width — surfaced in the report and as a
// shard_clamp obs event, never silently.
func TestShardClampSurfaced(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	in := separatedInstance(rng, 3)
	p1 := phase1(in)

	cap := &eventCapture{}
	cfg := seqConfig()
	cfg.Obs = cap
	got, rep := RunSharded(in, p1, ShardConfig{Config: cfg, Shards: 100, Seed: 7})
	if rep.ShardsRequested != 100 {
		t.Fatalf("ShardsRequested = %d, want 100", rep.ShardsRequested)
	}
	if rep.Shards > 64 {
		t.Fatalf("effective shards %d above the 64-shard mask width", rep.Shards)
	}
	fields, ok := cap.find("shard_clamp")
	if !ok {
		t.Fatalf("no shard_clamp event emitted; events: %v", cap.events)
	}
	if fields["requested"] != 100 || fields["clamped"] != 64 {
		t.Fatalf("shard_clamp fields = %v", fields)
	}
	if err := VerifyEquilibrium(in, got.Solution, nil); err != nil {
		t.Fatal(err)
	}

	// Below the clamp no event fires.
	cap2 := &eventCapture{}
	cfg.Obs = cap2
	if _, rep := RunSharded(in, p1, ShardConfig{Config: cfg, Shards: 8, Seed: 7}); rep.ShardsRequested != 8 {
		t.Fatalf("ShardsRequested = %d, want 8", rep.ShardsRequested)
	}
	if _, ok := cap2.find("shard_clamp"); ok {
		t.Fatal("shard_clamp fired without a clamp")
	}
}
