package collab

// Component-parallel boundary reconcile (DESIGN.md §16). Phase B of the
// sharded engine — the exchange game of §15 — is played as one group game
// per connected component of the shard conflict graph (groups.go), so it
// scales with the component count instead of running on one goroutine.
//
// The key fact is confinement: the interference masks are built from the
// admission-slack bound — the same physics the pruning engine trusts — over
// the phase-1 recipient set, which only shrinks as ρ rises. So at exchange
// time a worker admissible to recipient c carries the bit of c's shard, all
// of a worker's shard bits lie inside one connected component of the
// conflict graph, and a best-response scan by a component-K recipient can
// never accept (or even find improving) a worker homed outside K. The
// exchange game therefore factors into independent per-component subgames,
// and the global min-(ρ, center ID) recipient rule makes its sequence
// exactly the deterministic interleave of the component sequences — the
// same replay argument as the empty-cut phase-A merge, applied one level
// up. The exchange game itself is the one-component case.
//
// Greedy coloring of the conflict graph (greedyColorShards) feeds the
// telemetry gauge and the autotune cost model: within one color class
// shards are pairwise non-adjacent, so a low chromatic number certifies a
// sparse cut whose components stay small — the regime where this path wins.

import "math/bits"

// shardComponents labels each shard with its connected component in the
// conflict graph. Components are numbered by first appearance in shard
// order (shard 0's component is 0), so the labeling is canonical and
// deterministic.
func shardComponents(adj *[64]uint64, nShards int) ([]int, int) {
	compOf := make([]int, nShards)
	for s := range compOf {
		compOf[s] = -1
	}
	nComp := 0
	for s := 0; s < nShards; s++ {
		if compOf[s] >= 0 {
			continue
		}
		var seen uint64
		frontier := uint64(1) << s
		for frontier != 0 {
			t := bits.TrailingZeros64(frontier)
			frontier &^= uint64(1) << t
			if seen&(uint64(1)<<t) != 0 {
				continue
			}
			seen |= uint64(1) << t
			compOf[t] = nComp
			frontier |= adj[t] &^ seen
		}
		nComp++
	}
	return compOf, nComp
}

// greedyColorShards colors the shard conflict graph greedily in shard
// order, each shard taking the lowest color unused by its already-colored
// neighbors. Returns the per-shard colors and the color count (≤ max degree
// + 1). Deterministic; purely diagnostic — the reconcile parallelizes by
// component, the coloring certifies cut sparsity for the report, the
// imtao_shard_colors gauge and the autotune model.
func greedyColorShards(adj *[64]uint64, nShards int) ([]int, int) {
	colors := make([]int, nShards)
	nColors := 0
	for s := 0; s < nShards; s++ {
		var used uint64
		nb := adj[s] &^ (uint64(1) << s)
		for nb != 0 {
			t := bits.TrailingZeros64(nb)
			nb &^= uint64(1) << t
			if t < s {
				used |= uint64(1) << colors[t]
			}
		}
		c := bits.TrailingZeros64(^used)
		colors[s] = c
		if c+1 > nColors {
			nColors = c + 1
		}
	}
	return colors, nColors
}
