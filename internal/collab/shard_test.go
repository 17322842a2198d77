package collab

import (
	"math/rand"
	"reflect"
	"testing"

	"imtao/internal/assign"
	"imtao/internal/geo"
	"imtao/internal/model"
	"imtao/internal/routing"
	"imtao/internal/voronoi"
)

// separatedInstance builds `groups` dense metro blobs separated by far more
// than the admission radius ((slack+pad)·speed ≤ ~900 here, blob spacing
// 20000), so no worker is ever admissible to a foreign blob's centers: any
// shard partition along blob lines has an empty interference cut.
func separatedInstance(rng *rand.Rand, groups int) *model.Instance {
	const spacing = 20000.0
	in := &model.Instance{
		Speed:  300,
		Bounds: geo.NewRect(geo.Pt(0, 0), geo.Pt(float64(groups)*spacing+1000, 1000)),
	}
	for g := 0; g < groups; g++ {
		ox := float64(g) * spacing
		first := len(in.Centers)
		nc := 2 + rng.Intn(3)
		for i := 0; i < nc; i++ {
			in.Centers = append(in.Centers, model.Center{
				ID:  model.CenterID(len(in.Centers)),
				Loc: geo.Pt(ox+rng.Float64()*1000, rng.Float64()*1000),
			})
		}
		nearest := func(p geo.Point) model.CenterID {
			best, bd := first, p.Dist2(in.Centers[first].Loc)
			for ci := first + 1; ci < len(in.Centers); ci++ {
				if d := p.Dist2(in.Centers[ci].Loc); d < bd {
					best, bd = ci, d
				}
			}
			return model.CenterID(best)
		}
		for i, nt := 0, 15+rng.Intn(30); i < nt; i++ {
			p := geo.Pt(ox+rng.Float64()*1000, rng.Float64()*1000)
			c := nearest(p)
			id := model.TaskID(len(in.Tasks))
			in.Tasks = append(in.Tasks, model.Task{ID: id, Center: c, Loc: p, Expiry: 1 + rng.Float64(), Reward: 1})
			in.Centers[c].Tasks = append(in.Centers[c].Tasks, id)
		}
		for i, nw := 0, 5+rng.Intn(10); i < nw; i++ {
			p := geo.Pt(ox+rng.Float64()*1000, rng.Float64()*1000)
			c := nearest(p)
			id := model.WorkerID(len(in.Workers))
			in.Workers = append(in.Workers, model.Worker{ID: id, Home: c, Loc: p, MaxT: 4})
			in.Centers[c].Workers = append(in.Centers[c].Workers, id)
		}
	}
	return in
}

// TestShardedEmptyCutBitIdentical is the property test of the empty-cut
// guarantee: whenever the interference cut is empty, RunSharded reproduces
// the unsharded engine — and therefore RunReference — bit-identically:
// routes, transfers (order included), iteration count and the full trace
// (diagnostics aside). Separated metro instances make the cut provably
// empty for every shard count that splits along blob lines; shard counts
// above the blob count may split a blob (non-empty cut), in which case the
// run must still reach a verified equilibrium.
func TestShardedEmptyCutBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 6; trial++ {
		groups := 2 + rng.Intn(3)
		in := separatedInstance(rng, groups)
		p1 := phase1(in)
		want := Run(in, p1, seqConfig())
		ref := RunReference(in, p1, seqConfig())
		if !reflect.DeepEqual(want.Solution, ref.Solution) {
			t.Fatalf("trial %d: engine vs reference diverged before sharding", trial)
		}
		emptyCuts := 0
		for _, k := range []int{1, 2, 3, 4, 6, 8} {
			got, rep := RunSharded(in, p1, ShardConfig{Config: seqConfig(), Shards: k, Seed: 7})
			if k <= groups && !rep.EmptyCut {
				t.Fatalf("trial %d shards=%d: expected empty cut on %d separated blobs, got %d boundary workers",
					trial, k, groups, rep.BoundaryWorkers)
			}
			if rep.EmptyCut {
				emptyCuts++
				if !reflect.DeepEqual(got.Solution, want.Solution) {
					t.Fatalf("trial %d shards=%d: empty cut but solutions differ", trial, k)
				}
				if fingerprintSolution(got.Solution) != fingerprintSolution(ref.Solution) {
					t.Fatalf("trial %d shards=%d: fingerprint diverged from RunReference", trial, k)
				}
				if got.Iterations != want.Iterations {
					t.Fatalf("trial %d shards=%d: iterations %d vs %d", trial, k, got.Iterations, want.Iterations)
				}
				if !reflect.DeepEqual(stripEngineDiagnostics(got.Trace), stripEngineDiagnostics(want.Trace)) {
					t.Fatalf("trial %d shards=%d: traces differ", trial, k)
				}
			} else {
				if err := routing.SolutionFeasible(in, got.Solution); err != nil {
					t.Fatalf("trial %d shards=%d: %v", trial, k, err)
				}
			}
			if err := VerifyEquilibrium(in, got.Solution, nil); err != nil {
				t.Fatalf("trial %d shards=%d: %v", trial, k, err)
			}
		}
		if emptyCuts < groups {
			t.Fatalf("trial %d: only %d empty-cut shard counts over %d blobs — instance not exercising the merge",
				trial, emptyCuts, groups)
		}
	}
}

// TestShardedConflictedEquilibrium: dense instances where the interference
// cut is never empty must still reach a verified global Nash equilibrium,
// with the potential Φ monotone within every phase-A shard segment and
// within the exchange segment, and the whole run deterministic — across
// repeats and across ShardParallelism settings.
func TestShardedConflictedEquilibrium(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for trial := 0; trial < 6; trial++ {
		in := randomInstance(rng, 4+rng.Intn(4), 20+rng.Intn(20), 40+rng.Intn(60))
		p1 := phase1(in)
		for _, k := range []int{2, 4} {
			got, rep := RunSharded(in, p1, ShardConfig{Config: seqConfig(), Shards: k, Seed: 3})
			if err := routing.SolutionFeasible(in, got.Solution); err != nil {
				t.Fatalf("trial %d shards=%d: %v", trial, k, err)
			}
			if err := VerifyEquilibrium(in, got.Solution, nil); err != nil {
				t.Fatalf("trial %d shards=%d: %v", trial, k, err)
			}
			// Φ monotone per segment: the trace is the shard traces in shard
			// order followed by the exchange steps, with segment lengths in
			// the report.
			seg, start := 0, 0
			bounds := append(append([]int(nil), rep.ShardIterations...), rep.ExchangeIterations)
			for _, n := range bounds {
				prev := -1.0
				for i := start; i < start+n; i++ {
					if got.Trace[i].Phi < prev {
						t.Fatalf("trial %d shards=%d: Φ dropped %.6f → %.6f at step %d (segment %d)",
							trial, k, prev, got.Trace[i].Phi, i, seg)
					}
					prev = got.Trace[i].Phi
				}
				start += n
				seg++
			}
			if start != len(got.Trace) {
				t.Fatalf("trial %d shards=%d: segments cover %d steps, trace has %d",
					trial, k, start, len(got.Trace))
			}

			// Determinism: bit-identical on repeat and at forced shard
			// concurrency.
			again, rep2 := RunSharded(in, p1, ShardConfig{Config: seqConfig(), Shards: k, Seed: 3})
			rep.ShardWall, rep2.ShardWall = nil, nil // wall clocks differ by nature
			if !reflect.DeepEqual(got.Solution, again.Solution) || !reflect.DeepEqual(rep, rep2) {
				t.Fatalf("trial %d shards=%d: repeat run diverged", trial, k)
			}
			par, _ := RunSharded(in, p1, ShardConfig{
				Config: seqConfig(), Shards: k, Seed: 3, ShardParallelism: 4,
			})
			if !reflect.DeepEqual(got.Solution, par.Solution) ||
				!reflect.DeepEqual(stripEngineDiagnostics(got.Trace), stripEngineDiagnostics(par.Trace)) {
				t.Fatalf("trial %d shards=%d: ShardParallelism changed the outcome", trial, k)
			}
		}
	}
}

// TestShardedDCScope: the leftover-only (DC) scope runs through the sharded
// engine too — phase A dispatches leftovers within each home shard, the
// exchange game finishes globally — deterministically and without ever
// losing tasks versus no collaboration.
func TestShardedDCScope(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 6; trial++ {
		in := randomInstance(rng, 3+rng.Intn(4), 10+rng.Intn(16), 30+rng.Intn(40))
		p1 := phase1(in)
		cfg := seqConfig()
		cfg.Scope = LeftoverOnly
		got, _ := RunSharded(in, p1, ShardConfig{Config: cfg, Shards: 3, Seed: 5})
		if err := routing.SolutionFeasible(in, got.Solution); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if base := NoCollaboration(in, p1).AssignedCount(); got.Solution.AssignedCount() < base {
			t.Fatalf("trial %d: sharded DC lost tasks: %d < %d", trial, got.Solution.AssignedCount(), base)
		}
		again, _ := RunSharded(in, p1, ShardConfig{Config: cfg, Shards: 3, Seed: 5})
		if !reflect.DeepEqual(got.Solution, again.Solution) {
			t.Fatalf("trial %d: DC sharded run not deterministic", trial)
		}
	}
}

// TestShardedFallback: configurations the sharded engine cannot prove safe
// — random recipients, non-best-response candidates, budget-style assigners
// without PruneOn — fall back to the unsharded engine bit-identically, and
// report a single shard.
func TestShardedFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	in := randomInstance(rng, 4, 16, 40)
	p1 := phase1(in)

	rbdc := seqConfig()
	rbdc.Recipient = RandomRecipient
	rbdc.Rng = rand.New(rand.NewSource(9))
	got, rep := RunSharded(in, p1, ShardConfig{Config: rbdc, Shards: 4, Seed: 1})
	if rep.Shards != 1 || !rep.EmptyCut {
		t.Fatalf("RBDC did not fall back: %+v", rep)
	}
	rbdc.Rng = rand.New(rand.NewSource(9))
	want := Run(in, p1, rbdc)
	if !reflect.DeepEqual(got.Solution, want.Solution) {
		t.Fatal("RBDC fallback diverged from Run")
	}

	nw := seqConfig()
	nw.Candidate = NearestWorker
	if _, rep := RunSharded(in, p1, ShardConfig{Config: nw, Shards: 4, Seed: 1}); rep.Shards != 1 {
		t.Fatalf("NearestWorker did not fall back: %+v", rep)
	}

	custom := seqConfig()
	custom.Assigner = func(in *model.Instance, c *model.Center, ws []model.WorkerID, ts []model.TaskID) assign.Result {
		return assign.Sequential(in, c, ws, ts)
	}
	if _, rep := RunSharded(in, p1, ShardConfig{Config: custom, Shards: 4, Seed: 1}); rep.Shards != 1 {
		t.Fatalf("custom assigner without PruneOn did not fall back: %+v", rep)
	}

	// Shards ≤ 1 is the unsharded engine by definition.
	got1, rep1 := RunSharded(in, p1, ShardConfig{Config: seqConfig(), Shards: 1, Seed: 1})
	if rep1.Shards != 1 {
		t.Fatalf("shards=1 reported %d shards", rep1.Shards)
	}
	if !reflect.DeepEqual(got1.Solution, Run(in, p1, seqConfig()).Solution) {
		t.Fatal("shards=1 diverged from Run")
	}
}

// TestShardMemberGameStepZeroAlloc extends the DESIGN.md §13 gate to the
// sharded phase-A hot path: a warmed member-restricted, pool-masked game
// iteration — exactly what each shard runs — must not touch the heap.
func TestShardMemberGameStepZeroAlloc(t *testing.T) {
	in := skewedInstance(200)
	p1 := phase1(in)
	cfg := Config{Scope: FullReassign, Assigner: assign.Sequential, Parallelism: 1}
	members := make([]model.CenterID, len(in.Centers))
	for i := range members {
		members[i] = model.CenterID(i)
	}
	mask := make([]uint64, len(in.Workers))
	for i := range mask {
		mask[i] = 1
	}
	cfg.members, cfg.poolMask, cfg.poolBit = members, mask, 1
	g := NewGame(in, p1, cfg)
	for i := 0; i < 120; i++ {
		if !g.Step() {
			t.Fatalf("game over after %d iterations — instance too small to meter", i)
		}
	}
	const runs = 30
	g.Reserve(runs + 2)
	allocs := testing.AllocsPerRun(runs, func() {
		if !g.Step() {
			t.Fatalf("game ended mid-measurement")
		}
	})
	if allocs != 0 {
		t.Fatalf("sharded steady-state iteration allocates: %.2f allocs/iter (want 0)", allocs)
	}
}

// TestPlanShardsEdgeCases (satellite): degenerate partition inputs — more
// shards than centers, and all-coincident center locations — must produce
// well-formed canonical shard maps, and the full run must survive them.
func TestPlanShardsEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(96))

	// Shards ≥ centers: every center gets a shard of its own (labels are a
	// permutation image under first-appearance canonicalization).
	in := randomInstance(rng, 5, 20, 40)
	p1 := phase1(in)
	for _, k := range []int{5, 6, 12, 64} {
		shardOf, n := PlanShards(in, k, 7)
		if n > len(in.Centers) {
			t.Fatalf("k=%d: %d shards from %d centers", k, n, len(in.Centers))
		}
		seen := 0
		for i, s := range shardOf {
			if s < 0 || s >= n {
				t.Fatalf("k=%d: label %d out of range [0,%d)", k, s, n)
			}
			if s > seen {
				t.Fatalf("k=%d: label %d at center %d before %d — not canonical", k, s, i, seen)
			}
			if s == seen {
				seen++
			}
		}
		got, rep := RunSharded(in, p1, ShardConfig{Config: seqConfig(), Shards: k, Seed: 7})
		if err := VerifyEquilibrium(in, got.Solution, nil); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if rep.Shards != len(rep.ShardIterations) {
			t.Fatalf("k=%d: report inconsistency: %d shards, %d segments", k, rep.Shards, len(rep.ShardIterations))
		}
	}

	// All-coincident centers: the partition collapses to one shard and the
	// run degrades to the unsharded engine.
	co := randomInstance(rng, 4, 16, 30)
	for ci := range co.Centers {
		co.Centers[ci].Loc = geo.Pt(500, 500)
	}
	p1co := phase1(co)
	if _, n := PlanShards(co, 3, 7); n != 1 {
		t.Fatalf("coincident centers produced %d shards, want 1", n)
	}
	got, rep := RunSharded(co, p1co, ShardConfig{Config: seqConfig(), Shards: 3, Seed: 7})
	if rep.Shards != 1 || !rep.EmptyCut {
		t.Fatalf("coincident centers: %+v", rep)
	}
	if !reflect.DeepEqual(got.Solution, Run(co, p1co, seqConfig()).Solution) {
		t.Fatal("coincident-center fallback diverged from the unsharded engine")
	}
}

// TestShardMapStableAcrossParallelism (satellite): the shard map is a pure
// function of (instance, shards, seed) — ShardParallelism must never leak
// into the partition or the canonical labeling.
func TestShardMapStableAcrossParallelism(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 4; trial++ {
		in := randomInstance(rng, 6+rng.Intn(4), 24+rng.Intn(16), 50+rng.Intn(30))
		p1 := phase1(in)
		var base []int
		for _, par := range []int{0, 1, 2, 4, 8} {
			_, rep := RunSharded(in, p1, ShardConfig{
				Config: seqConfig(), Shards: 4, Seed: 11, ShardParallelism: par,
			})
			if base == nil {
				base = rep.ShardOf
				continue
			}
			if !reflect.DeepEqual(base, rep.ShardOf) {
				t.Fatalf("trial %d: ShardOf changed under ShardParallelism=%d: %v vs %v",
					trial, par, rep.ShardOf, base)
			}
		}
	}
}

// hotspotInstance builds the heterogeneous-load geography of the Hotspot
// workload preset at collab-test scale: uniformly spread centers, demand
// piled onto a dense core, tasks and workers attached to their nearest
// center. Count-balanced shard partitions skew badly here.
func hotspotInstance(rng *rand.Rand, centers, tasks, workers int) *model.Instance {
	in := &model.Instance{
		Speed:  300,
		Bounds: geo.NewRect(geo.Pt(0, 0), geo.Pt(10000, 10000)),
	}
	for i := 0; i < centers; i++ {
		in.Centers = append(in.Centers, model.Center{
			ID:  model.CenterID(i),
			Loc: geo.Pt(rng.Float64()*10000, rng.Float64()*10000),
		})
	}
	nearest := func(p geo.Point) model.CenterID {
		best, bd := 0, p.Dist2(in.Centers[0].Loc)
		for ci := 1; ci < len(in.Centers); ci++ {
			if d := p.Dist2(in.Centers[ci].Loc); d < bd {
				best, bd = ci, d
			}
		}
		return model.CenterID(best)
	}
	sample := func() geo.Point {
		if rng.Float64() < 0.7 {
			return geo.Pt(3000+rng.NormFloat64()*500, 3000+rng.NormFloat64()*500)
		}
		return geo.Pt(rng.Float64()*10000, rng.Float64()*10000)
	}
	for i := 0; i < tasks; i++ {
		p := sample()
		c := nearest(p)
		id := model.TaskID(len(in.Tasks))
		in.Tasks = append(in.Tasks, model.Task{ID: id, Center: c, Loc: p, Expiry: 1 + rng.Float64(), Reward: 1})
		in.Centers[c].Tasks = append(in.Centers[c].Tasks, id)
	}
	for i := 0; i < workers; i++ {
		p := sample()
		c := nearest(p)
		id := model.WorkerID(len(in.Workers))
		in.Workers = append(in.Workers, model.Worker{ID: id, Home: c, Loc: p, MaxT: 4})
		in.Centers[c].Workers = append(in.Centers[c].Workers, id)
	}
	return in
}

// TestWeightedPlanReducesHotspotSkew (acceptance): on hotspot-heterogeneous
// geographies the task-weighted PlanShards partition carries less task-load
// skew than the count-balanced PR 8 partitioner (plain PartitionPoints over
// the same center locations), in aggregate across seeds.
func TestWeightedPlanReducesHotspotSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	var sumW, sumU float64
	for trial := 0; trial < 6; trial++ {
		in := hotspotInstance(rng, 24, 400, 100)
		pts := make([]geo.Point, len(in.Centers))
		for ci := range in.Centers {
			pts[ci] = in.Centers[ci].Loc
		}

		shardOf, n := PlanShards(in, 6, 7)
		_, skewW := shardTaskLoads(in, shardOf, n)

		labels, nu := voronoi.PartitionPoints(7, pts, 6)
		_, skewU := shardTaskLoads(in, labels, nu)

		sumW += skewW
		sumU += skewU
	}
	if sumW >= sumU {
		t.Fatalf("task-weighted partition does not reduce hotspot load skew: %.3f vs %.3f (mean over trials)",
			sumW/6, sumU/6)
	}
}
