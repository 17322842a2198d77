package provenance

import (
	"fmt"

	"imtao/internal/model"
)

// StepRef points at one iteration of one log, in globally serialized order.
type StepRef struct {
	Log  *GameLog
	Iter *IterRec
}

// ReplayResult is a deterministic reconstruction of the recorded run: the
// final solution rebuilt from the ledger alone, plus the global serialized
// step order the engines executed (or, for the sharded engine, the order
// the merge replay proves they are equivalent to) — the substrate of every
// explain query.
type ReplayResult struct {
	Solution *model.Solution
	Steps    []StepRef
}

// Replay reconstructs the run's exact final solution from the ledger — no
// instance, no assigner, no game. Phase-1 routes seed the state; the game
// logs then replay in the engine's global order:
//
//   - a single game log (unsharded engine) applies sequentially;
//   - multiple game logs with no exchange log (sharded, empty cut) merge by
//     the live min-(ρ, center ID) recipient rule — which the ledger
//     re-derives from each step's recorded RhoBefore, since every center's
//     steps live in exactly one log and its recorded ρ IS the live ρ at
//     that step (the sharded merge's synthesized stranded rejects change
//     no state and are safely absent);
//   - game logs followed by exchange logs (sharded, non-empty cut) apply
//     the game logs sequentially in shard order — reproducing the
//     prior-transfer concatenation — then the exchange logs sequentially
//     (one exchange group) or by the same min-(ρ, id) merge (one group per
//     conflict component).
//
// The returned solution fingerprints identically to the live Report's
// (SolutionFingerprint) — the property the ledger's completeness is pinned
// against.
func Replay(l *Ledger) (*ReplayResult, error) {
	if l.Phase1 == nil {
		return nil, fmt.Errorf("provenance: ledger has no phase-1 section — cannot replay")
	}
	r := &replayer{
		sol: &model.Solution{PerCenter: make([]model.Assignment, l.Meta.Centers)},
	}
	for ci := range r.sol.PerCenter {
		r.sol.PerCenter[ci].Center = model.CenterID(ci)
	}
	for i := range l.Phase1 {
		p := &l.Phase1[i]
		if int(p.Center) >= len(r.sol.PerCenter) {
			return nil, fmt.Errorf("provenance: phase-1 center %d out of range (%d centers)", p.Center, l.Meta.Centers)
		}
		routes := make([]model.Route, len(p.Routes))
		for j, rt := range p.Routes {
			routes[j] = model.Route{Worker: rt.Worker, Center: p.Center,
				Tasks: append([]model.TaskID(nil), rt.Tasks...)}
		}
		r.sol.PerCenter[p.Center].Routes = routes
	}

	var gameLogs, exchLogs []*GameLog
	for _, g := range l.Logs {
		switch g.Stage {
		case StageGame:
			gameLogs = append(gameLogs, g)
		case StageExchange:
			exchLogs = append(exchLogs, g)
		default:
			return nil, fmt.Errorf("provenance: unknown log stage %q", g.Stage)
		}
	}

	switch {
	case len(gameLogs) == 0 && len(exchLogs) == 0:
		// w/o-C: phase 1 is final.
	case len(exchLogs) == 0 && len(gameLogs) == 1:
		r.applySeq(gameLogs[0])
	case len(exchLogs) == 0:
		// Empty interference cut: the shard games are the global game's
		// per-shard subsequences.
		r.applyMerged(gameLogs)
	default:
		// Non-empty cut: phase-A outcomes concatenate in shard order (the
		// prior-transfer log), then the exchange settles the boundary.
		for _, g := range gameLogs {
			r.applySeq(g)
		}
		if len(exchLogs) == 1 {
			r.applySeq(exchLogs[0])
		} else {
			r.applyMerged(exchLogs)
		}
	}
	if r.sol.AssignedCount() == 0 && l.Final != nil && l.Final.Assigned != 0 {
		return nil, fmt.Errorf("provenance: replay assigned 0 tasks, final section records %d", l.Final.Assigned)
	}
	return &ReplayResult{Solution: r.sol, Steps: r.steps}, nil
}

type replayer struct {
	sol   *model.Solution
	steps []StepRef
}

// applySeq replays one log's steps in recorded order.
func (r *replayer) applySeq(g *GameLog) {
	for i := range g.Iters {
		r.apply(g, &g.Iters[i])
	}
}

// applyMerged k-way merges several logs' steps by the live min-(ρ, center)
// recipient rule: among the log heads, the step whose recipient has the
// lowest ρ — its recorded RhoBefore — goes first, ties by center ID. Ties
// across logs cannot collide (each center's steps live in one log; within a
// log the head order is preserved by construction).
func (r *replayer) applyMerged(logs []*GameLog) {
	pos := make([]int, len(logs))
	for {
		best := -1
		var bestRho float64
		var bestR model.CenterID
		for k, g := range logs {
			if pos[k] >= len(g.Iters) {
				continue
			}
			h := &g.Iters[pos[k]]
			if best < 0 || h.RhoBefore < bestRho ||
				(h.RhoBefore == bestRho && h.Recipient < bestR) {
				best, bestRho, bestR = k, h.RhoBefore, h.Recipient
			}
		}
		if best < 0 {
			return
		}
		r.apply(logs[best], &logs[best].Iters[pos[best]])
		pos[best]++
	}
}

// apply executes one step against the replay state: accepted steps extend
// the transfer log and install the recipient's recorded route delta.
func (r *replayer) apply(g *GameLog, it *IterRec) {
	r.steps = append(r.steps, StepRef{Log: g, Iter: it})
	if !it.Accepted {
		return
	}
	r.sol.Transfers = append(r.sol.Transfers,
		model.Transfer{Src: it.Source, Dst: it.Recipient, Worker: it.Worker})
	delta := g.RouteDelta(it)
	pc := &r.sol.PerCenter[it.Recipient]
	if it.Replace {
		pc.Routes = pc.Routes[:0]
	}
	for _, rt := range delta {
		pc.Routes = append(pc.Routes, model.Route{Worker: rt.Worker,
			Center: it.Recipient, Tasks: append([]model.TaskID(nil), rt.Tasks...)})
	}
}
