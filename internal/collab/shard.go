package collab

// Region-sharded phase-2 engine (DESIGN.md §15–16). RunSharded partitions
// the centers into geographic shards with the voronoi task-weighted k-means
// machinery (or picks the count itself under ShardAuto — autotune.go),
// proves which workers can interact with which shards (the worker-overlap
// interference graph), plays one best-response game per shard concurrently
// over the home-shard workers, and reconciles the boundary workers with an
// exchange game resumed from the merged shard states, played per conflict
// component (reconcile.go). Both phases run through one group runner and
// one interleave merge (groups.go). The exchange game runs the ordinary
// best-response dynamics to a fixed point, so the final state is a global
// pure Nash equilibrium (VerifyEquilibrium); when the interference
// cut is empty the shard games ARE the global game and RunSharded
// reconstructs the exact reference sequence — routes, transfers and trace
// bit-identical to Run/RunReference.

import (
	"math/bits"
	"time"

	"imtao/internal/assign"
	"imtao/internal/geo"
	"imtao/internal/index"
	"imtao/internal/metrics"
	"imtao/internal/model"
	"imtao/internal/obs"
	"imtao/internal/provenance"
	"imtao/internal/voronoi"
)

// Shard-engine metrics, aggregated across every sharded run of the process.
var (
	mShardGames = obs.Default.Counter("imtao_shard_games_total",
		"phase-A shard games played (one per shard per sharded run)")
	mShardGameSeconds = obs.Default.Quantile("imtao_shard_game_seconds",
		"wall time of one phase-A shard game, pool-queue wait included; the "+
			"p99/p50 spread is the shard skew straggler view")
	mShardIterSeconds = obs.Default.Quantile("imtao_shard_iter_seconds",
		"wall time of one shard-game iteration across every shard of every "+
			"sharded run — the per-shard counterpart of imtao_collab_iter_seconds")
	mShardBoundary = obs.Default.Gauge("imtao_shard_boundary_workers",
		"boundary workers of the most recent sharded run — workers admissible "+
			"to recipient centers in more than one shard, settled by the "+
			"exchange game instead of a phase-A pool")
	mShardConflicts = obs.Default.Gauge("imtao_shard_conflict_edges",
		"interference-graph edges of the most recent sharded run — shard "+
			"pairs sharing at least one boundary worker")
	mShardSkew = obs.Default.Gauge("imtao_shard_skew",
		"max/mean phase-A shard game wall time of the most recent sharded "+
			"run — 1.0 is perfectly balanced shards")
	mExchangeIters = obs.Default.Counter("imtao_shard_exchange_iterations_total",
		"serialized exchange-round iterations of the boundary reconcile game")
	mExchangeTransfers = obs.Default.Counter("imtao_shard_exchange_transfers_total",
		"workforce dispatches accepted during boundary reconciliation")
	mShardColors = obs.Default.Gauge("imtao_shard_colors",
		"greedy chromatic number of the shard conflict graph in the most "+
			"recent sharded run — low colors mean a sparse cut whose boundary "+
			"reconcile parallelizes well")
	mShardLoadSkew = obs.Default.Gauge("imtao_shard_load_skew",
		"max/mean per-shard task load of the most recent sharded partition — "+
			"the static counterpart of the wall-time imtao_shard_skew gauge; "+
			"1.0 is a perfectly load-balanced partition")
	mShardAutoShards = obs.Default.Gauge("imtao_shard_autotune_shards",
		"shard count picked by the most recent ShardAuto probe")
	mShardAutoProbes = obs.Default.Gauge("imtao_shard_autotune_probes",
		"candidate ladder size of the most recent ShardAuto probe")
)

// ShardConfig configures a sharded collaboration run.
type ShardConfig struct {
	Config
	// Shards is the requested geographic shard count. Values above 64 are
	// clamped (the interference bitsets are one machine word — the clamp is
	// surfaced in ShardReport.ShardsRequested and a shard_clamp obs event);
	// duplicate center locations can reduce the effective count further.
	// ≤ 1 runs the unsharded engine, except ShardAuto (-1), which probes a
	// candidate ladder and picks the count minimizing the modeled critical
	// path (autotune.go).
	Shards int
	// Seed drives the k-means shard partition (voronoi.PartitionPoints):
	// the same seed always produces the same shard map.
	Seed int64
	// ShardParallelism bounds the goroutines playing phase-A shard games
	// and phase-B component games concurrently. 0 means GOMAXPROCS; 1 plays
	// them serially. The output is bit-identical at every setting: each game
	// is deterministic and the results are merged in group order. When
	// games run concurrently their inner trial parallelism is forced to 1.
	ShardParallelism int
	// Ledger, when non-nil, receives the sharded run's full decision record:
	// one game log per phase-A shard (in shard order), then one exchange log
	// per reconcile component (in component order; a single one under a
	// caller iteration cap). The deterministic log-creation order is what
	// lets provenance.Replay re-derive the merge interleave from the
	// recorded per-step ρ values alone. The fallback path that runs the
	// unsharded engine records one global game log.
	Ledger *provenance.Ledger
}

// ShardReport describes the partition and reconciliation work of one
// sharded run.
type ShardReport struct {
	// ShardsRequested is the caller's ShardConfig.Shards verbatim —
	// ShardAuto (-1) for an autotuned run, and possibly above the effective
	// count when the 64-shard interference-word clamp or duplicate center
	// locations reduced it.
	ShardsRequested int
	// Shards is the effective shard count; ShardOf maps each center to its
	// shard label.
	Shards  int
	ShardOf []int
	// ExclusiveWorkers can only ever interact with one shard, so their
	// phase-A placement is final; BoundaryWorkers are admissible to
	// recipient centers of two or more shards — phase A settles them
	// tentatively within their home shard and the exchange game re-contests
	// them globally. ConflictEdges counts shard pairs sharing at least one
	// boundary worker; EmptyCut reports a boundary-free partition — the
	// case where the shard games provably reproduce the global game.
	ExclusiveWorkers int
	BoundaryWorkers  int
	ConflictEdges    int
	EmptyCut         bool
	// Components and Colors describe the shard conflict graph: its connected
	// components (the unit of boundary-reconcile parallelism — non-adjacent
	// shard groups reconcile concurrently) and its greedy chromatic number
	// (the density diagnostic behind the autotune cost model; 1 when the cut
	// is empty). LoadSkew is max/mean per-shard task load of the partition —
	// the static skew the task-weighted partitioner minimizes.
	Components int
	Colors     int
	LoadSkew   float64
	// Auto carries the ShardAuto probe — the candidate ladder with per-count
	// interference stats and modeled costs, and the picked count. Nil unless
	// the run was requested with Shards: ShardAuto.
	Auto *ShardAutotune
	// ShardIterations and ShardWall are the per-shard phase-A iteration
	// counts and wall times, in shard order. With a non-empty cut the final
	// trace is the shard traces concatenated in this order followed by the
	// exchange-game steps, so these lengths segment it.
	ShardIterations []int
	ShardWall       []time.Duration
	// ExchangeIterations and ExchangeTransfers are the boundary exchange
	// game's iteration and accepted-dispatch counts, summed over its
	// component games (zero when the cut is empty — reconciliation is
	// skipped entirely).
	ExchangeIterations int
	ExchangeTransfers  int
}

// PlanShards partitions the instance's centers into at most shards
// geographic groups with the seeded task-weighted k-means partitioner
// (voronoi.PartitionWeightedPoints — weights are per-center task counts, so
// shard mass tracks game work rather than center count; a bounded rebalance
// pass then caps the residual load skew) and returns the center→shard
// labels plus the effective shard count. Deterministic per (instance,
// shards, seed).
func PlanShards(in *model.Instance, shards int, seed int64) ([]int, int) {
	pts := make([]geo.Point, len(in.Centers))
	weights := make([]float64, len(in.Centers))
	for i := range in.Centers {
		pts[i] = in.Centers[i].Loc
		weights[i] = float64(len(in.Centers[i].Tasks))
	}
	return voronoi.PartitionWeightedPoints(seed, pts, weights, shards)
}

// shardTaskLoads returns the per-shard task counts of a partition and their
// max/mean skew (1.0 when perfectly balanced; 0 mean degenerates to 0).
func shardTaskLoads(in *model.Instance, shardOf []int, nShards int) ([]float64, float64) {
	loads := make([]float64, nShards)
	var total float64
	for ci := range in.Centers {
		l := float64(len(in.Centers[ci].Tasks))
		loads[shardOf[ci]] += l
		total += l
	}
	if total == 0 {
		return loads, 0
	}
	var maxL float64
	for _, l := range loads {
		if l > maxL {
			maxL = l
		}
	}
	return loads, maxL * float64(nShards) / total
}

// interference is the worker-overlap analysis of a shard partition.
type interference struct {
	// mask[w] is the bitset of shards worker w can interact with: its home
	// shard plus every shard holding a recipient center it is admissible to.
	// Zero means w can never enter any pool (a used worker of a
	// non-recipient center) — it never circulates.
	mask      []uint64
	exclusive int
	boundary  int
	conflicts int
	// adj[s] is the conflict-graph adjacency bitset of shard s (its own bit
	// included): the union of the masks of every boundary worker touching s.
	// The component/coloring analysis of the parallel boundary reconcile
	// (reconcile.go) and the autotune cost model both read it.
	adj [64]uint64
}

// shardInterference computes the interference graph: which shards each
// potentially-poolable worker can interact with. A worker is poolable when
// it starts in the phase-1 leftover pool or is owned by a recipient center
// (whose own workers can be freed back into the pool by an accepted
// reassignment); a poolable worker touches shard S when its home center is
// in S or some recipient center of S admits it under the admission-slack
// check — the same physics bound the pruning engine uses, evaluated over
// the static FullReassign scope (or the initial, maximal leftover set for
// DC, whose slack only shrinks). Two shards conflict iff some worker
// touches both.
func shardInterference(in *model.Instance, phase1 []assign.Result,
	shardOf []int, scope Scope) interference {

	nW := len(in.Workers)
	inf := interference{mask: make([]uint64, nW)}

	recipient := make([]bool, len(in.Centers))
	for ci := range in.Centers {
		assigned := countTasks(phase1[ci].Routes)
		if metrics.Ratio(assigned, len(in.Centers[ci].Tasks)) < 1 {
			recipient[ci] = true
		}
	}

	// Poolable workers get their home-shard bit.
	for ci := range in.Centers {
		bit := uint64(1) << shardOf[ci]
		for _, w := range phase1[ci].LeftWorkers {
			inf.mask[w] |= bit
		}
		if recipient[ci] {
			for _, w := range in.Centers[ci].Workers {
				inf.mask[w] |= bit
			}
		}
	}

	// Candidate edges: recipient center → admissible poolable workers. With
	// a speed bound the scan per center is a grid range query of the same
	// conservatively inflated admission radius the game pool uses; otherwise
	// every poolable worker gets the exact travel-time check.
	var grid *index.Grid
	vmax := poolSpeedBound(in)
	var poolable []model.WorkerID
	for w, m := range inf.mask {
		if m != 0 {
			poolable = append(poolable, model.WorkerID(w))
		}
	}
	if vmax > 0 {
		grid = index.NewGrid(in.Bounds, max(len(poolable)/4, 1), 4)
		for _, w := range poolable {
			grid.Insert(index.Item{ID: int(w), Point: in.Worker(w).Loc})
		}
	}
	var items []index.Item
	for ci := range in.Centers {
		if !recipient[ci] {
			continue
		}
		c := in.Center(model.CenterID(ci))
		var slack float64
		if scope == LeftoverOnly {
			slack = assign.AdmissionSlack(in, c, phase1[ci].LeftTasks)
		} else {
			slack = assign.AdmissionSlack(in, c, c.Tasks)
		}
		bit := uint64(1) << shardOf[ci]
		if grid != nil {
			r := (slack + assign.PrunePad) * vmax
			if r > 0 {
				r += r*1e-9 + 1e-12
			}
			items = grid.InRangeAppend(items[:0], c.Loc, r)
			for _, it := range items {
				w := model.WorkerID(it.ID)
				if in.Worker(w).Home != model.CenterID(ci) &&
					assign.WorkerAdmissible(in, c, w, slack) {
					inf.mask[w] |= bit
				}
			}
		} else {
			for _, w := range poolable {
				if in.Worker(w).Home != model.CenterID(ci) &&
					assign.WorkerAdmissible(in, c, w, slack) {
					inf.mask[w] |= bit
				}
			}
		}
	}

	// Boundary/conflict accounting: a worker whose bitset spans >1 shard is
	// a boundary worker and adds its shard pairs to the conflict graph.
	for _, m := range inf.mask {
		switch bits.OnesCount64(m) {
		case 0:
		case 1:
			inf.exclusive++
		default:
			inf.boundary++
			for mm := m; mm != 0; {
				s := bits.TrailingZeros64(mm)
				mm &= mm - 1
				inf.adj[s] |= m
			}
		}
	}
	for s := range inf.adj {
		inf.conflicts += bits.OnesCount64(inf.adj[s] &^ (uint64(1)<<(s+1) - 1))
	}
	return inf
}

// RunSharded executes the collaboration game through the region-sharded
// engine: concurrent per-shard best-response dynamics over the
// shard-exclusive workers, then an exchange game that settles the boundary
// workers and drives the merged state to a global Nash equilibrium. The
// instance is not mutated.
//
// Determinism: the outcome is bit-identical across ShardParallelism
// settings and repeated runs (deterministic assigners). When the
// interference cut is empty the result — routes, transfers and trace — is
// additionally bit-identical to Run/RunReference (diagnostics and Duration
// aside); otherwise the result is a different, but verified, equilibrium of
// the same game.
//
// The sharded path engages for MinRatio/BestResponse dynamics with an
// assigner admitting the admissibility-pruning argument (the built-in
// Sequential, or any assigner the caller vouches for via PruneOn — the
// interference graph is built from the same admission-slack bound).
// Everything else — RandomRecipient, NearestWorker, budgeted assigners
// under PruneOff — falls back to the unsharded Run, reported as one shard.
// Config.MaxIterations, when set, caps each shard game and the exchange
// game individually.
func RunSharded(in *model.Instance, phase1 []assign.Result, cfg ShardConfig) (Result, ShardReport) {
	requested := cfg.Shards
	k := requested
	eligible := cfg.Recipient == MinRatio && cfg.Candidate == BestResponse &&
		(isSequentialAssigner(cfg.Assigner) || cfg.Prune == PruneOn)
	var auto *ShardAutotune
	if k == ShardAuto && eligible && len(in.Centers) >= 2 {
		in.PrepareMetric()
		in.EnsureHot()
		auto = autotuneShards(in, phase1, cfg)
		k = auto.Picked
		mShardAutoShards.Set(float64(k))
		mShardAutoProbes.Set(float64(len(auto.Ladder)))
	}
	if k > 64 {
		// The interference bitsets are one machine word; surface the clamp
		// instead of hiding it (ShardsRequested keeps the original ask).
		if obs.Enabled(cfg.Obs) {
			cfg.Obs.Event("shard_clamp",
				obs.F("requested", requested), obs.F("clamped", 64))
		}
		k = 64
	}
	var shardOf []int
	nShards := 1
	if k > 1 && len(in.Centers) >= 2 && eligible {
		in.PrepareMetric()
		in.EnsureHot()
		shardOf, nShards = PlanShards(in, k, cfg.Seed)
	}
	if nShards <= 1 {
		// Unsharded fallback: one shard asked for, an ineligible method, or a
		// partition that collapsed to one shard.
		if cfg.Ledger != nil {
			cfg.Config.Prov = cfg.Ledger.NewGameLog(provenance.StageGame, -1)
		}
		res := Run(in, phase1, cfg.Config)
		return res, ShardReport{
			ShardsRequested: requested,
			Shards:          1,
			ShardOf:         make([]int, len(in.Centers)),
			EmptyCut:        true,
			Components:      1,
			Colors:          1,
			LoadSkew:        1,
			Auto:            auto,
			ShardIterations: []int{res.Iterations},
			ShardWall:       []time.Duration{0},
		}
	}
	inf := shardInterference(in, phase1, shardOf, cfg.Scope)
	_, loadSkew := shardTaskLoads(in, shardOf, nShards)
	compOf, nComp := shardComponents(&inf.adj, nShards)
	_, nColors := greedyColorShards(&inf.adj, nShards)
	mShardBoundary.Set(float64(inf.boundary))
	mShardConflicts.Set(float64(inf.conflicts))
	mShardLoadSkew.Set(loadSkew)
	mShardColors.Set(float64(nColors))

	// Phase A: one restricted game per shard over its member centers and
	// the poolable workers of its HOME shard: every worker plays in exactly
	// one shard's game, so the games run concurrently without coordination.
	// When the interference cut is empty the home partition coincides with
	// the interference masks (every poolable worker's mask is exactly its
	// home bit), which is what makes the shard games provable restrictions
	// of the global game; with a non-empty cut, boundary workers are settled
	// tentatively in their home shard and re-contested by every admissible
	// center in phase B.
	games, solus, walls := playGroups(in, phase1, shardOf, nShards, cfg, provenance.StageGame, nil)

	rep := ShardReport{
		ShardsRequested:  requested,
		Shards:           nShards,
		ShardOf:          shardOf,
		ExclusiveWorkers: inf.exclusive,
		BoundaryWorkers:  inf.boundary,
		ConflictEdges:    inf.conflicts,
		EmptyCut:         inf.boundary == 0,
		Components:       nComp,
		Colors:           nColors,
		LoadSkew:         loadSkew,
		Auto:             auto,
		ShardIterations:  make([]int, nShards),
		ShardWall:        walls,
	}
	var wallMax, wallSum time.Duration
	for s := 0; s < nShards; s++ {
		rep.ShardIterations[s] = solus[s].Iterations
		wallSum += walls[s]
		wallMax = max(wallMax, walls[s])
		mShardGames.Inc()
		mShardGameSeconds.ObserveDuration(walls[s])
		for i := range solus[s].Trace {
			mShardIterSeconds.ObserveDuration(solus[s].Trace[i].Duration)
		}
	}
	if wallSum > 0 {
		mShardSkew.Set(float64(wallMax) * float64(nShards) / float64(wallSum))
	}

	if rep.EmptyCut {
		// No worker can touch two shards: the shard games are exactly the
		// global game's per-shard subsequences, and interleaving them
		// reconstructs the reference run verbatim.
		return interleave(in, phase1, shardOf, games, solus, nil), rep
	}

	// Phase B: boundary reconciliation. The exchange game is the ordinary
	// best-response dynamics resumed from the merged shard states with the
	// full worker pool — boundary workers included for the first time — so
	// every center (including those that dropped out of a shard game)
	// re-probes its improving deviations against the global pool. The
	// dynamics terminates at a
	// state with no improving transfer anywhere: a global Nash equilibrium.
	//
	// It is played as one group game per conflict component: admissibility
	// confines every worker's exchange-time moves to one component, so the
	// component games run concurrently and their interleave is the single
	// exchange game bit-for-bit (reconcile.go, DESIGN.md §16). A caller-set
	// MaxIterations, whose global cap has no per-component equivalent, plays
	// every center in one group — the single exchange game itself.
	merged := make([]assign.Result, len(in.Centers))
	var prior []model.Transfer
	for s := 0; s < nShards; s++ {
		prior = append(prior, solus[s].Solution.Transfers...)
	}
	groupOf := make([]int, len(in.Centers))
	nGroups := 1
	if cfg.MaxIterations <= 0 {
		nGroups = nComp
	}
	for ci := range in.Centers {
		g := games[shardOf[ci]]
		st := &g.states[ci]
		used := make(map[model.WorkerID]bool, len(st.routes))
		for i := range st.routes {
			used[st.routes[i].Worker] = true
		}
		var lws []model.WorkerID
		for _, w := range st.own {
			if !used[w] {
				lws = append(lws, w)
			}
		}
		merged[ci] = assign.Result{Routes: st.routes, LeftTasks: st.leftTasks, LeftWorkers: lws}
		if nGroups > 1 {
			groupOf[ci] = compOf[shardOf[ci]]
		}
	}
	gamesB, solusB, _ := playGroups(in, merged, groupOf, nGroups, cfg, provenance.StageExchange, prior)
	resB := interleave(in, merged, groupOf, gamesB, solusB, prior)
	rep.ExchangeIterations = resB.Iterations
	rep.ExchangeTransfers = len(resB.Solution.Transfers) - len(prior)
	mExchangeIters.Add(int64(rep.ExchangeIterations))
	mExchangeTransfers.Add(int64(rep.ExchangeTransfers))

	// Final trace: shard traces in shard order (shard-local ρ/Φ semantics),
	// then the exchange steps (global semantics), renumbered consecutively.
	total := len(resB.Trace)
	for _, n := range rep.ShardIterations {
		total += n
	}
	trace := make([]TraceStep, 0, total)
	for s := 0; s < nShards; s++ {
		trace = append(trace, solus[s].Trace...)
	}
	trace = append(trace, resB.Trace...)
	for i := range trace {
		trace[i].Iteration = i + 1
	}
	resB.Trace = trace
	resB.Iterations = len(trace)
	return resB, rep
}
