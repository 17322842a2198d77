package collab

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"imtao/internal/assign"
	"imtao/internal/metrics"
	"imtao/internal/model"
	"imtao/internal/obs"
)

// RunReference is the frozen pre-engine collaboration loop: every iteration
// rebuilds the candidate list from the pool map, re-derives the ρ vector and
// total assigned count from scratch, and evaluates one full assigner run per
// candidate — no admissibility pruning, no prefix-resume. It is kept
// verbatim as the behavioral reference for the optimized Run (DESIGN.md
// §11): the equivalence tests assert bit-identical routes, transfers and
// trace against it, and the `imtao-bench -game` speedup is measured against
// it. Do not optimize this function.
func RunReference(in *model.Instance, phase1 []assign.Result, cfg Config) Result {
	if cfg.Assigner == nil {
		cfg.Assigner = assign.Sequential
	}
	in.PrepareMetric()
	n := len(in.Centers)

	// Per-center mutable state.
	type centerState struct {
		routes    []model.Route
		leftTasks []model.TaskID
		// own is the set of workers homed here and not lent out.
		own map[model.WorkerID]bool
		// borrowed workers received from other centers, in arrival order.
		borrowed []model.WorkerID
		rho      float64
	}
	states := make([]centerState, n)
	// pool is the available worker set C.W_left: worker -> home center.
	pool := make(map[model.WorkerID]model.CenterID)
	for ci := range in.Centers {
		st := &states[ci]
		st.routes = cloneRoutes(phase1[ci].Routes)
		st.leftTasks = append([]model.TaskID(nil), phase1[ci].LeftTasks...)
		st.own = make(map[model.WorkerID]bool, len(in.Centers[ci].Workers))
		for _, w := range in.Centers[ci].Workers {
			st.own[w] = true
		}
		st.rho = metrics.Ratio(countTasks(st.routes), len(in.Centers[ci].Tasks))
		for _, w := range phase1[ci].LeftWorkers {
			pool[w] = model.CenterID(ci)
		}
	}

	// Line 3–10: recipient set C' = centers with ρ < 1.
	var recipients []model.CenterID
	for ci := range in.Centers {
		if states[ci].rho < 1 {
			recipients = append(recipients, model.CenterID(ci))
		}
	}

	maxIter := cfg.MaxIterations
	if maxIter <= 0 {
		maxIter = len(in.Tasks) + n + 1
	}

	res := Result{}
	var transfers []model.Transfer
	rhos := func() []float64 {
		out := make([]float64, n)
		for i := range states {
			out[i] = states[i].rho
		}
		return out
	}
	totalAssigned := func() int {
		t := 0
		for i := range states {
			t += countTasks(states[i].routes)
		}
		return t
	}

	workerSetOf := func(ci model.CenterID) []model.WorkerID {
		st := &states[ci]
		out := make([]model.WorkerID, 0, len(st.own)+len(st.borrowed))
		for w := range st.own {
			out = append(out, w)
		}
		out = append(out, st.borrowed...)
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}

	for iter := 1; iter <= maxIter && len(recipients) > 0 && len(pool) > 0; iter++ {
		iterStart := time.Now()
		res.Iterations = iter
		mIterations.Inc()
		// Line 13: recipient selection.
		var ci model.CenterID
		switch cfg.Recipient {
		case RandomRecipient:
			ci = recipients[cfg.Rng.Intn(len(recipients))]
		case MaxLeftover:
			ci = recipients[0]
			for _, c := range recipients[1:] {
				if len(states[c].leftTasks) > len(states[ci].leftTasks) ||
					(len(states[c].leftTasks) == len(states[ci].leftTasks) && c < ci) {
					ci = c
				}
			}
		default:
			ci = metrics.MinRatioCenter(rhos(), recipients)
		}
		st := &states[ci]
		center := in.Center(ci)

		// Candidate workers: available pool minus the recipient's own.
		cands := make([]model.WorkerID, 0, len(pool))
		for w := range pool {
			if !st.own[w] {
				cands = append(cands, w)
			}
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
		if cfg.Candidate == NearestWorker && len(cands) > 1 {
			best := cands[0]
			bd := in.Worker(best).Loc.Dist2(center.Loc)
			for _, w := range cands[1:] {
				if d := in.Worker(w).Loc.Dist2(center.Loc); d < bd {
					best, bd = w, d
				}
			}
			cands = []model.WorkerID{best}
		}

		// Line 14–15: best response via one full re-assignment per candidate.
		var baseWS []model.WorkerID
		if cfg.Scope != LeftoverOnly {
			baseWS = workerSetOf(ci)
		}
		trials := evalTrialsRef(in, center, cands, baseWS, st.leftTasks, cfg)
		mTrials.Add(int64(len(cands)))

		curAssigned := countTasks(st.routes)
		bestRho := st.rho
		bestIdx := -1
		var bestRes assign.Result
		for i := range cands {
			trial := trials[i]
			newAssigned := trial.AssignedCount()
			if cfg.Scope == LeftoverOnly {
				newAssigned += curAssigned
			}
			newRho := metrics.Ratio(newAssigned, len(center.Tasks))
			if newRho > bestRho+rhoEps {
				bestRho = newRho
				bestIdx = i
				bestRes = trial
			}
		}

		step := TraceStep{
			Iteration: iter, Recipient: ci, RhoBefore: st.rho,
			Trials: len(cands),
		}
		if bestIdx < 0 {
			step.Accepted = false
			step.RhoAfter = st.rho
			recipients = removeCenter(recipients, ci)
			mRejections.Inc()
		} else {
			w := cands[bestIdx]
			src := pool[w]
			delete(pool, w)
			step.Worker = w
			step.Source = src
			step.Accepted = true
			step.RhoAfter = bestRho

			delete(states[src].own, w)
			st.borrowed = append(st.borrowed, w)
			transfers = append(transfers, model.Transfer{Src: src, Dst: ci, Worker: w})
			mTransfers.Inc()

			if cfg.Scope == LeftoverOnly {
				st.routes = append(st.routes, cloneRoutes(bestRes.Routes)...)
				st.leftTasks = append([]model.TaskID(nil), bestRes.LeftTasks...)
			} else {
				st.routes = cloneRoutes(bestRes.Routes)
				st.leftTasks = append([]model.TaskID(nil), bestRes.LeftTasks...)
				leftSet := make(map[model.WorkerID]bool, len(bestRes.LeftWorkers))
				for _, lw := range bestRes.LeftWorkers {
					leftSet[lw] = true
				}
				for ow := range st.own {
					if leftSet[ow] {
						pool[ow] = ci
					} else {
						delete(pool, ow)
					}
				}
			}
			st.rho = bestRho
			if st.rho >= 1-rhoEps {
				recipients = removeCenter(recipients, ci)
			}
		}
		rv := rhos()
		step.Assigned = totalAssigned()
		step.Unfairness = metrics.Unfairness(rv)
		step.Phi = metrics.Phi(rv)
		step.Rhos = rv
		step.Duration = time.Since(iterStart)
		mIterSeconds.ObserveDuration(step.Duration)
		mGamePhi.Set(step.Phi)
		res.Trace = append(res.Trace, step)
		emitGameIter(cfg.Obs, &step)
	}

	sol := model.NewSolution(in)
	for ci := range states {
		sol.PerCenter[ci].Routes = cloneRoutes(states[ci].routes)
	}
	sol.Transfers = transfers
	res.Solution = sol
	return res
}

// evalTrialsRef is the frozen full-trial evaluator backing RunReference:
// every candidate costs one complete assigner run over the recipient's
// worker set plus the candidate.
func evalTrialsRef(in *model.Instance, center *model.Center, cands []model.WorkerID,
	baseWS []model.WorkerID, leftTasks []model.TaskID, cfg Config) []assign.Result {

	trials := make([]assign.Result, len(cands))

	eval := func(i int) assign.Result {
		w := cands[i]
		if cfg.Scope == LeftoverOnly {
			return cfg.Assigner(in, center, []model.WorkerID{w}, leftTasks)
		}
		ws := make([]model.WorkerID, len(baseWS)+1)
		copy(ws, baseWS)
		ws[len(baseWS)] = w
		return cfg.Assigner(in, center, ws, center.Tasks)
	}

	workers := parallelism(cfg.Parallelism)
	if workers > len(cands) {
		workers = len(cands)
	}
	if workers <= 1 {
		for i := range cands {
			trials[i] = eval(i)
		}
		return trials
	}

	mPoolDispatched.Add(int64(len(cands)))
	dispatched := time.Now()
	timed := obs.TimingOn()
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for g := 0; g < workers; g++ {
		go func() {
			defer wg.Done()
			mPoolWorkers.Add(1)
			defer mPoolWorkers.Add(-1)
			for {
				i := int(next.Add(1) - 1)
				if i >= len(cands) {
					return
				}
				if timed {
					mPoolQueueWait.Observe(time.Since(dispatched).Seconds())
				}
				trials[i] = eval(i)
			}
		}()
	}
	wg.Wait()
	return trials
}
