package main

// metric is one reported figure: its name and unit in the output, the
// direction that is better, and for a per-layer metric the end-to-end
// metric it should move, on which workload, and where it should not.
type metric struct {
	name, unit, better string
	moves, notOn       string
}

// Predictions shared by groups of per-layer metrics.
const (
	bothSolve     = "solve_s on both workloads"
	coldSolve     = "solve_s on road-cold-10k"
	warmSolve     = "solve_s on road-warm-20k"
	warmOnly      = "road-warm-20k, whose timed and traced solves find every table cached; there they move setup_s"
	coldLittle    = "road-cold-10k, which it moves only a little: there the oracle fill takes most of the CPU"
	phase1Little  = "road-warm-20k, where phase 1 reads a warm cache and the game dominates"
	probeMoves    = "no end-to-end metric: a sharded game played beside road-warm-20k's traced solve, on its phase-1 state; it models solve_s, assigned and unfairness of a sharded deployment"
	noProbe       = "road-cold-10k, which plays no sharded game (reads 0)"
	outsideSolve  = "no end-to-end metric: it runs outside the timed solve"
	tracedSolve   = "solve_s on both workloads; read over the traced solve"
	selfTimeNotOn = "nothing: spans are recorded only at layer boundaries, so time inside the program shows in the calling layer"
)

// endToEnd are the metrics of a -trace 0 run.
var endToEnd = []metric{
	{name: "solve_s", unit: "s", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "assigned", unit: "count", better: "higher"},
	{name: "unfairness", unit: "ratio", better: "lower"},
	{name: "alloc_mb", unit: "MB", better: "lower"},
	{name: "live_heap_mb", unit: "MB", better: "lower"},
}

// perLayer are the metrics of a -trace 1 run.
var perLayer = []metric{
	{"voronoi.partition_s", "s", "lower", bothSolve + " (about 1% of it; there to catch growth)", ""},

	{"roadnet.build_s", "s", "lower", "setup_s on road-cold-10k, which builds a network before every solve", "solve_s anywhere"},
	{"roadnet.prepare_metric_s", "s", "lower", bothSolve, ""},
	{"roadnet.center_tables_s", "s", "lower", coldSolve, warmOnly},
	{"roadnet.dijkstra_runs", "count", "lower", coldSolve, warmOnly},
	{"roadnet.dijkstra_busy_s", "s", "lower", coldSolve, warmOnly},
	{"roadnet.cache_hits", "count", "higher", coldSolve, warmOnly},
	{"roadnet.cache_misses", "count", "lower", coldSolve, warmOnly},
	{"roadnet.hit_ratio", "ratio", "higher", coldSolve, warmOnly},
	{"roadnet.singleflight_waits", "count", "lower", coldSolve, warmOnly},
	{"roadnet.setup_dijkstra_runs", "count", "lower", "setup_s on road-warm-20k", "road-cold-10k, whose set-up searches nothing (reads 0)"},

	{"assign.phase1_s", "s", "lower", coldSolve, phase1Little},
	{"assign.center_p50_ms", "ms", "lower", coldSolve, phase1Little},
	{"assign.center_max_ms", "ms", "lower", coldSolve, phase1Little},
	{"assign.tasks_scanned", "count", "lower", coldSolve, phase1Little},
	{"assign.deadline_rejections", "count", "lower", coldSolve, phase1Little},
	{"assign.route_extensions", "count", "lower", coldSolve, phase1Little},
	{"assign.extension_ratio", "ratio", "higher", coldSolve, phase1Little},

	{"index.nearest_queries", "count", "lower", warmSolve + " most", coldLittle},
	{"index.nearest_per_trial", "ratio", "lower", warmSolve + " most", coldLittle},

	{"collab.phase2_s", "s", "lower", warmSolve, coldLittle},
	{"collab.iterations", "count", "lower", warmSolve, coldLittle},
	{"collab.transfers", "count", "lower", warmSolve, coldLittle},
	{"collab.accept_ratio", "ratio", "higher", warmSolve, coldLittle},
	{"collab.iter_p50_ms", "ms", "lower", warmSolve, coldLittle},
	{"collab.iter_tail_ms", "ms", "lower", warmSolve, coldLittle},
	{"collab.iter_tail_pct", "%", "higher", "nothing: it names the percentile collab.iter_tail_ms reads, the highest with at least ten iterations beyond it", ""},
	{"collab.trials", "count", "lower", warmSolve, coldLittle},
	{"collab.candidates_pruned", "count", "higher", warmSolve, coldLittle},
	{"collab.memo_hits", "count", "higher", warmSolve, coldLittle},
	{"collab.prune_ratio", "ratio", "higher", warmSolve, coldLittle},
	{"collab.trials_per_transfer", "ratio", "lower", warmSolve, coldLittle},
	{"collab.verify_s", "s", "lower", outsideSolve, ""},

	{"shard.phase2_s", "s", "lower", probeMoves, noProbe},
	{"shard.count", "count", "higher", probeMoves, noProbe},
	{"shard.load_skew", "ratio", "lower", probeMoves, noProbe},
	{"shard.boundary_workers", "count", "lower", probeMoves, noProbe},
	{"shard.conflict_edges", "count", "lower", probeMoves, noProbe},
	{"shard.components", "count", "higher", probeMoves, noProbe},
	{"shard.wall_max_s", "s", "lower", probeMoves, noProbe},
	{"shard.wall_sum_s", "s", "lower", probeMoves, noProbe},
	{"shard.exchange_iterations", "count", "lower", probeMoves, noProbe},
	{"shard.exchange_transfers", "count", "lower", probeMoves, noProbe},
	{"shard.assigned_delta_vs_s1", "count", "higher", probeMoves, noProbe},
	{"shard.unfairness_ratio_vs_s1", "ratio", "lower", probeMoves, noProbe},
	{"shard.phi_delta_vs_s1", "ratio", "higher", probeMoves, noProbe},

	{"solve.self_s", "s", "lower", bothSolve, selfTimeNotOn},
	{"voronoi.self_s", "s", "lower", bothSolve, selfTimeNotOn},
	{"roadnet.self_s", "s", "lower", bothSolve, selfTimeNotOn},
	{"assign.self_s", "s", "lower", coldSolve, selfTimeNotOn},
	{"collab.self_s", "s", "lower", warmSolve, selfTimeNotOn},

	{"process.cpu_s", "s", "lower", tracedSolve, ""},
	{"process.parallel_efficiency", "ratio", "higher", tracedSolve, ""},
	{"runtime.gc_cycles", "count", "lower", tracedSolve + ", and alloc_mb", ""},
	{"runtime.gc_pause_ms", "ms", "lower", tracedSolve, ""},
	{"trace.overhead_ratio", "ratio", "lower", "no end-to-end metric: the timed runs are untraced", ""},

	{"cpu_share.index", "ratio", "lower", warmSolve + " most", coldLittle},
	{"cpu_share.roadnet", "ratio", "lower", coldSolve + ", where it is the largest share", warmOnly},
	{"cpu_share.assign", "ratio", "lower", bothSolve, ""},
	{"cpu_share.collab", "ratio", "lower", warmSolve, coldLittle},
	{"cpu_share.voronoi", "ratio", "lower", bothSolve, ""},
	{"cpu_share.runtime", "ratio", "lower", bothSolve + ", and alloc_mb", ""},
}
