package collab

// Group games and their interleave merge (DESIGN.md §15–16). Both phases of
// the sharded engine play the global best-response game as restricted games
// over disjoint groups of centers — phase A one group per shard, phase B one
// group per conflict component (or a single group) — and merge the outcomes
// by the global min-(ρ, center ID) recipient rule. playGroups runs the games;
// interleave merges them.

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"imtao/internal/assign"
	"imtao/internal/metrics"
	"imtao/internal/model"
	"imtao/internal/provenance"
	"imtao/internal/slab"
)

// playGroups plays one restricted best-response game per group of centers
// and returns the games, their results and their wall times in group order.
// groupOf labels every center with its group in [0, nGroups). A group's
// game plays only the group's centers, and its pool admits a worker only
// when the worker's home center carries the group's label, so the games'
// mutable state is disjoint: they run concurrently on a pool bounded by
// ShardParallelism, each with its own trial base, runners, scratch and
// arenas, and land in fixed slots — the outcome is identical at every
// parallelism. When the games run concurrently their inner trial
// parallelism is forced to 1.
//
// Every game starts from start. A non-nil resume carries prior transfers and
// trial memos in, each routed to the group of its center; a prior transfer
// must stay inside one group. Each game records into its own cfg.Ledger log
// under stage, created upfront in group order so the ledger's log sequence
// is deterministic too.
func playGroups(in *model.Instance, start []assign.Result, groupOf []int, nGroups int,
	cfg ShardConfig, stage string, resume *resumeState) ([]*Game, []Result, []time.Duration) {

	members := make([][]model.CenterID, nGroups)
	for ci, g := range groupOf {
		members[g] = append(members[g], model.CenterID(ci))
	}
	poolMask := make([]uint64, len(in.Workers))
	for w := range poolMask {
		poolMask[w] = uint64(groupOf[in.Workers[w].Home])
	}
	// Per-group resume views: fresh memo arrays so concurrent games never
	// share mutable slots; each map is read and invalidated only by the game
	// of its center's group. Transfers keep their global order per group.
	resumes := make([]*resumeState, nGroups)
	if resume != nil {
		for g := range resumes {
			resumes[g] = &resumeState{memo: make([]map[model.WorkerID]assign.Result, len(in.Centers))}
		}
		for _, tr := range resume.transfers {
			r := resumes[groupOf[tr.Dst]]
			r.transfers = append(r.transfers, tr)
		}
		for ci, m := range resume.memo {
			resumes[groupOf[ci]].memo[ci] = m
		}
	}
	logs := make([]*provenance.GameLog, nGroups)
	if cfg.Ledger != nil {
		for g := range logs {
			logs[g] = cfg.Ledger.NewGameLog(stage, g)
		}
	}

	par := cfg.ShardParallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	par = min(par, nGroups)
	innerPar := cfg.Parallelism
	if par > 1 {
		innerPar = 1
	}

	games := make([]*Game, nGroups)
	solus := make([]Result, nGroups)
	walls := make([]time.Duration, nGroups)
	play := func(g int) {
		gcfg := cfg.Config
		gcfg.members = members[g]
		gcfg.poolMask, gcfg.poolBit = poolMask, uint64(g)
		gcfg.Parallelism = innerPar
		gcfg.Prov = logs[g]
		gcfg.resume = resumes[g]
		t0 := time.Now()
		games[g] = NewGame(in, start, gcfg)
		for games[g].Step() {
		}
		solus[g] = games[g].Finish()
		walls[g] = time.Since(t0)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(par)
	for range par {
		go func() {
			defer wg.Done()
			for g := int(next.Add(1) - 1); g < nGroups; g = int(next.Add(1) - 1) {
				play(g)
			}
		}()
	}
	wg.Wait()
	return games, solus, walls
}

// interleave merges the group games of playGroups into the one global game
// they restrict. Every global iteration happens at the min-ρ recipient; when
// no worker can move between groups, that recipient's candidates, trials and
// state updates are exactly its group game's next step, so merging the
// group traces by (ρ, center ID) — the MinRatioCenter rule — replays the
// global sequence verbatim. The global ρ vector and assigned total replay
// from the steps' deltas, so Rhos, Unfairness and Phi are recomputed with
// global semantics (group traces carry group-local ones).
//
// Recipients stranded by a group pool that ran dry (still in the group
// game's recipient set at its end) reject with an empty candidate list in
// the global game; those steps are synthesized here in final-(ρ, ID) order,
// and the merge stops where the global game would — when the union pool is
// empty. A game cut off by its iteration cap with a live pool strands
// nobody. The transfer log extends prior in merged step order.
func interleave(in *model.Instance, start []assign.Result, groupOf []int,
	games []*Game, solus []Result, prior []model.Transfer, cfg *Config) Result {

	n := len(in.Centers)
	nGroups := len(games)

	rho := make([]float64, n)
	assignedTotal := 0
	prevAssigned := make([]int, nGroups)
	for ci := range in.Centers {
		a := countTasks(start[ci].Routes)
		rho[ci] = metrics.Ratio(a, len(in.Centers[ci].Tasks))
		assignedTotal += a
		prevAssigned[groupOf[ci]] += a
	}

	// Sort stranded recipients by the group game's FINAL ρ (games[g].rhoVec),
	// not the starting value: a stranded recipient that accepted dispatches
	// before its pool died carries its raised ratio into the global order.
	stranded := make([][]model.CenterID, nGroups)
	for g, gm := range games {
		if gm.pool.len() > 0 {
			continue
		}
		stranded[g] = append(stranded[g], gm.recipients...)
		fin := gm.rhoVec
		sort.Slice(stranded[g], func(i, j int) bool {
			a, b := stranded[g][i], stranded[g][j]
			if fin[a] != fin[b] {
				return fin[a] < fin[b]
			}
			return a < b
		})
	}

	// poolLive reports whether the union pool still has a worker: some group
	// either has real steps pending (its pool was live at that local time)
	// or finished with a non-empty pool.
	pos := make([]int, nGroups)
	spos := make([]int, nGroups)
	poolLive := func() bool {
		for g := range games {
			if pos[g] < len(solus[g].Trace) || games[g].pool.len() > 0 {
				return true
			}
		}
		return false
	}

	totalSteps := 0
	for g := range games {
		totalSteps += len(solus[g].Trace) + len(stranded[g])
	}
	trace := make([]TraceStep, 0, totalSteps)
	// Nil-preserving: a run with no transfers at all leaves Transfers nil,
	// exactly like Game.Finish.
	transfers := append([]model.Transfer(nil), prior...)
	var rhos slab.Arena[float64]
	rhos.Reserve(totalSteps * n)
	for {
		best, bestSynth := -1, false
		var bestR model.CenterID
		for g := range games {
			var r model.CenterID
			var synth bool
			switch {
			case pos[g] < len(solus[g].Trace):
				r = solus[g].Trace[pos[g]].Recipient
			case spos[g] < len(stranded[g]):
				r, synth = stranded[g][spos[g]], true
			default:
				continue
			}
			if best < 0 || rho[r] < rho[bestR] || (rho[r] == rho[bestR] && r < bestR) {
				best, bestR, bestSynth = g, r, synth
			}
		}
		if best < 0 {
			break
		}
		var step TraceStep
		if bestSynth {
			if !poolLive() {
				break
			}
			spos[best]++
			step = TraceStep{Recipient: bestR, Accepted: false,
				RhoBefore: rho[bestR], RhoAfter: rho[bestR]}
		} else {
			step = solus[best].Trace[pos[best]]
			pos[best]++
			assignedTotal += step.Assigned - prevAssigned[best]
			prevAssigned[best] = step.Assigned
			rho[step.Recipient] = step.RhoAfter
			if step.Accepted {
				transfers = append(transfers,
					model.Transfer{Src: step.Source, Dst: step.Recipient, Worker: step.Worker})
			}
		}
		rv := rhos.Copy(rho)
		step.Iteration = len(trace) + 1
		step.Assigned = assignedTotal
		step.Rhos = rv
		step.Unfairness = metrics.Unfairness(rv)
		step.Phi = metrics.Phi(rv)
		trace = append(trace, step)
	}

	sol := model.NewSolution(in)
	for ci := range in.Centers {
		sol.PerCenter[ci].Routes = solus[groupOf[ci]].Solution.PerCenter[ci].Routes
	}
	sol.Transfers = transfers
	res := Result{Solution: sol, Trace: trace, Iterations: len(trace)}
	// Game.Finish's memo rule: the group games' end-state caches merge per
	// center (each center is cached by exactly one group), FullReassign
	// only — a DC trial is not the verifier's deviation. A global game may
	// cache strictly more (under PruneOff its candidate lists span other
	// groups' pools), but every missing entry falls back to a fresh trial in
	// VerifyEquilibrium.
	if cfg.Scope != LeftoverOnly && !cfg.noMemo {
		memo := make([]map[model.WorkerID]assign.Result, n)
		anyMemo := false
		for ci := range in.Centers {
			if m := games[groupOf[ci]].memo[ci]; m != nil {
				memo[ci] = m
				anyMemo = true
			}
		}
		if anyMemo {
			res.trialMemo = memo
		}
	}
	return res
}
