package collab

import (
	"math/rand"
	"reflect"
	"testing"

	"imtao/internal/assign"
	"imtao/internal/geo"
	"imtao/internal/model"
	"imtao/internal/provenance"
	"imtao/internal/routing"
)

// pairedBlobsInstance builds `pairs` metro regions, each a contiguous
// 1200-wide strip, with the strips separated by far more than the admission
// radius. Splitting each strip in two (Shards = 2·pairs) yields a non-empty
// interference cut inside every strip but none across strips — a conflict
// graph with `pairs` components of two shards each, the geometry the
// component-parallel reconcile exists for.
func pairedBlobsInstance(rng *rand.Rand, pairs int) *model.Instance {
	const spacing = 40000.0
	in := &model.Instance{
		Speed:  300,
		Bounds: geo.NewRect(geo.Pt(0, 0), geo.Pt(float64(pairs)*spacing+1200, 1000)),
	}
	for g := 0; g < pairs; g++ {
		ox := float64(g) * spacing
		first := len(in.Centers)
		nc := 4 + rng.Intn(3)
		for i := 0; i < nc; i++ {
			in.Centers = append(in.Centers, model.Center{
				ID:  model.CenterID(len(in.Centers)),
				Loc: geo.Pt(ox+rng.Float64()*1200, rng.Float64()*1000),
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
		for i, nt := 0, 30+rng.Intn(30); i < nt; i++ {
			p := geo.Pt(ox+rng.Float64()*1200, rng.Float64()*1000)
			c := nearest(p)
			id := model.TaskID(len(in.Tasks))
			in.Tasks = append(in.Tasks, model.Task{ID: id, Center: c, Loc: p, Expiry: 1 + rng.Float64(), Reward: 1})
			in.Centers[c].Tasks = append(in.Centers[c].Tasks, id)
		}
		for i, nw := 0, 10+rng.Intn(10); i < nw; i++ {
			p := geo.Pt(ox+rng.Float64()*1200, rng.Float64()*1000)
			c := nearest(p)
			id := model.WorkerID(len(in.Workers))
			in.Workers = append(in.Workers, model.Worker{ID: id, Home: c, Loc: p, MaxT: 4})
			in.Centers[c].Workers = append(in.Centers[c].Workers, id)
		}
	}
	return in
}

// oneGroupCap is a MaxIterations far above any game's natural length: it
// caps nothing, but a caller-set cap plays the boundary exchange as one
// group — the single exchange game of DESIGN.md §15.
const oneGroupCap = 1 << 30

// TestReconcileComponentsBitIdentical is the property test of the
// component-parallel reconcile (DESIGN.md §16): on non-empty cuts whose
// conflict graph splits into several components, the per-component games
// must reproduce the one-group exchange game bit-for-bit — routes, transfer
// log (order included), iteration count, and the full trace with its Φ
// segments — at every ShardParallelism, and the outcome must still be a
// verified global Nash equilibrium.
func TestReconcileComponentsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	multiComp := 0
	for trial := 0; trial < 6; trial++ {
		pairs := 2 + rng.Intn(2)
		in := pairedBlobsInstance(rng, pairs)
		p1 := phase1(in)
		k := 2 * pairs

		one := seqConfig()
		one.MaxIterations = oneGroupCap
		serial, srep := RunSharded(in, p1, ShardConfig{Config: one, Shards: k, Seed: 7})
		if srep.EmptyCut {
			t.Fatalf("trial %d: empty cut — instance not exercising the reconcile", trial)
		}
		if srep.Components > 1 {
			multiComp++
		}

		for _, par := range []int{0, 1, 2, 4} {
			got, rep := RunSharded(in, p1, ShardConfig{
				Config: seqConfig(), Shards: k, Seed: 7, ShardParallelism: par,
			})
			if rep.Components != srep.Components || rep.Colors != srep.Colors {
				t.Fatalf("trial %d par=%d: component/color profile diverged: %d/%d vs %d/%d",
					trial, par, rep.Components, rep.Colors, srep.Components, srep.Colors)
			}
			if !reflect.DeepEqual(got.Solution, serial.Solution) {
				t.Fatalf("trial %d par=%d: solutions diverged from the one-group exchange", trial, par)
			}
			if got.Iterations != serial.Iterations {
				t.Fatalf("trial %d par=%d: iterations %d vs %d", trial, par, got.Iterations, serial.Iterations)
			}
			gt, st := stripEngineDiagnostics(got.Trace), stripEngineDiagnostics(serial.Trace)
			if !reflect.DeepEqual(gt, st) {
				for i := range gt {
					if !reflect.DeepEqual(gt[i], st[i]) {
						t.Fatalf("trial %d par=%d: traces diverge at step %d:\n  component: %+v\n  one-group: %+v",
							trial, par, i, gt[i], st[i])
					}
				}
				t.Fatalf("trial %d par=%d: trace lengths diverge: %d vs %d", trial, par, len(gt), len(st))
			}
			// Φ per-step equality is implied by the trace equality above;
			// assert the segment boundaries agree too so a future trace
			// change cannot silently drop the invariant.
			if !reflect.DeepEqual(rep.ShardIterations, srep.ShardIterations) ||
				rep.ExchangeIterations != srep.ExchangeIterations {
				t.Fatalf("trial %d par=%d: segment boundaries diverged", trial, par)
			}
			if err := routing.SolutionFeasible(in, got.Solution); err != nil {
				t.Fatalf("trial %d par=%d: %v", trial, par, err)
			}
			if err := got.VerifyEquilibrium(in, nil); err != nil {
				t.Fatalf("trial %d par=%d: %v", trial, par, err)
			}
		}
	}
	if multiComp == 0 {
		t.Fatal("no trial produced a multi-component conflict graph — the concurrent merge never ran")
	}
}

// TestOneGroupIsGlobalGame pins the group runner's degenerate case: one
// group holding every center, with the pool gate admitting every worker,
// interleaves into exactly the unsharded game — uncapped, and cut off by an
// iteration cap with a live pool (which must strand nobody).
func TestOneGroupIsGlobalGame(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	for trial := 0; trial < 6; trial++ {
		in := randomInstance(rng, 4+rng.Intn(4), 20+rng.Intn(20), 40+rng.Intn(60))
		p1 := phase1(in)
		for _, m := range []int{0, 1, 3} {
			cfg := ShardConfig{Config: seqConfig()}
			cfg.MaxIterations = m
			want := Run(in, p1, cfg.Config)
			zero := make([]int, len(in.Centers))
			games, solus, _ := playGroups(in, p1, zero, 1, cfg, provenance.StageGame, nil)
			got := interleave(in, p1, zero, games, solus, nil, &cfg.Config)
			if !reflect.DeepEqual(got.Solution, want.Solution) {
				t.Fatalf("trial %d cap=%d: one-group solution diverged from Run", trial, m)
			}
			if !reflect.DeepEqual(stripEngineDiagnostics(got.Trace), stripEngineDiagnostics(want.Trace)) {
				t.Fatalf("trial %d cap=%d: one-group trace diverged from Run (%d vs %d steps)",
					trial, m, len(got.Trace), len(want.Trace))
			}
		}
	}
}

// TestShardedCappedReconcile: a caller-set MaxIterations caps every phase-A
// shard game and the one-group exchange game individually, and the capped
// run still yields a feasible solution.
func TestShardedCappedReconcile(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	conflicted := 0
	for trial := 0; trial < 4; trial++ {
		pairs := 2 + rng.Intn(2)
		in := pairedBlobsInstance(rng, pairs)
		p1 := phase1(in)
		for _, m := range []int{1, 2, 5} {
			cfg := seqConfig()
			cfg.MaxIterations = m
			got, rep := RunSharded(in, p1, ShardConfig{Config: cfg, Shards: 2 * pairs, Seed: 7})
			if !rep.EmptyCut {
				conflicted++
			}
			if rep.ExchangeIterations > m {
				t.Fatalf("trial %d m=%d: exchange ran %d iterations", trial, m, rep.ExchangeIterations)
			}
			for s, n := range rep.ShardIterations {
				if n > m {
					t.Fatalf("trial %d m=%d: shard %d ran %d iterations", trial, m, s, n)
				}
			}
			if err := routing.SolutionFeasible(in, got.Solution); err != nil {
				t.Fatalf("trial %d m=%d: %v", trial, m, err)
			}
		}
	}
	if conflicted == 0 {
		t.Fatal("every cut was empty — the capped exchange game never ran")
	}
}

// TestShardComponentsAndColoring pins the graph helpers: component labels
// are canonical (first appearance), coloring is proper, and both are
// consistent with the adjacency.
func TestShardComponentsAndColoring(t *testing.T) {
	// 0–1 2–3–4 5 : two edges + a path + an isolated vertex.
	var adj [64]uint64
	link := func(a, b int) {
		adj[a] |= 1 << b
		adj[b] |= 1 << a
	}
	link(0, 1)
	link(2, 3)
	link(3, 4)

	compOf, nComp := shardComponents(&adj, 6)
	if nComp != 3 || !reflect.DeepEqual(compOf, []int{0, 0, 1, 1, 1, 2}) {
		t.Fatalf("components = %v (n=%d)", compOf, nComp)
	}

	colors, nColors := greedyColorShards(&adj, 6)
	if nColors < 2 || nColors > 3 {
		t.Fatalf("chromatic estimate %d for a path + edge", nColors)
	}
	for s := 0; s < 6; s++ {
		nb := adj[s]
		for tgt := 0; tgt < 6; tgt++ {
			if nb&(1<<tgt) != 0 && tgt != s && colors[s] == colors[tgt] {
				t.Fatalf("improper coloring: shards %d and %d are adjacent with color %d", s, tgt, colors[s])
			}
		}
	}

	// A complete graph needs n colors and forms one component.
	var kn [64]uint64
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			kn[a] |= 1 << b
			kn[b] |= 1 << a
		}
	}
	if _, n := shardComponents(&kn, 4); n != 1 {
		t.Fatalf("K4 components = %d", n)
	}
	if _, c := greedyColorShards(&kn, 4); c != 4 {
		t.Fatalf("K4 colors = %d", c)
	}
}

// TestReconcileResumedGameStepZeroAlloc extends the §13 zero-alloc gate to
// the exchange-subgame shape the component reconcile runs: a game resumed
// from a prior transfer log, member-restricted and pool-masked. A warmed
// steady-state Step must not touch the heap.
func TestReconcileResumedGameStepZeroAlloc(t *testing.T) {
	in := skewedInstance(200)
	p1 := phase1(in)
	cfg := Config{Scope: FullReassign, Assigner: assign.Sequential, Parallelism: 1}

	// A prefix of the unsharded run's transfer log stands in for the
	// phase-A transfers the reconcile resumes from.
	full := Run(in, p1, cfg)
	prior := full.Solution.Transfers[:len(full.Solution.Transfers)/4]

	members := make([]model.CenterID, len(in.Centers))
	for i := range members {
		members[i] = model.CenterID(i)
	}
	mask := make([]uint64, len(in.Workers))
	for i := range mask {
		mask[i] = 1
	}
	cfg.members, cfg.poolMask, cfg.poolBit = members, mask, 1
	cfg.resume = &resumeState{transfers: append([]model.Transfer(nil), prior...)}
	g := NewGame(in, p1, cfg)
	for i := 0; i < 60; i++ {
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
		t.Fatalf("resumed reconcile-shape iteration allocates: %.2f allocs/iter (want 0)", allocs)
	}
}
