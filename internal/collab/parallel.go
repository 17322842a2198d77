package collab

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"imtao/internal/assign"
	"imtao/internal/model"
	"imtao/internal/obs"
)

// Trial-pool health metrics. Occupancy tracks live evaluation goroutines;
// queue wait (time between dispatch and a goroutine picking a trial up)
// needs a clock read per trial, so it only records when obs.EnableTiming is
// on.
var (
	mPoolWorkers = obs.Default.Gauge("imtao_collab_pool_workers",
		"live trial-evaluation goroutines")
	mPoolDispatched = obs.Default.Counter("imtao_collab_pool_trials_total",
		"trial evaluations dispatched to the parallel pool")
	mPoolQueueWait = obs.Default.Histogram("imtao_collab_pool_queue_wait_seconds",
		"time a dispatched trial waited before evaluation started (only with timing enabled)",
		obs.TimeBuckets)
)

// parallelism resolves a Config.Parallelism value: 0 (and negatives) mean
// GOMAXPROCS, 1 is the serial path.
func parallelism(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// runner returns the long-lived trial evaluator for the given slot, rebound
// to base (recycling its arenas and rebuilding its pooled grid). Slot 0
// serves the serial path; the parallel path binds one slot per goroutine.
// Runners survive across iterations — the per-iteration Rebind is what lets
// every trial slice come from recycled arena memory instead of the heap.
func (g *Game) runner(slot int, base *assign.TrialBase) *assign.TrialRunner {
	for len(g.runners) <= slot {
		g.runners = append(g.runners, nil)
	}
	if g.runners[slot] == nil {
		g.runners[slot] = base.NewRunner()
	} else {
		g.runners[slot].Rebind(base)
	}
	return g.runners[slot]
}

// fullTrial evaluates one candidate by a complete assigner run — the
// fallback when no prefix-resume base is available (custom assigners, or a
// baseline that does not line up with the serve order).
func (g *Game) fullTrial(center *model.Center, cand model.WorkerID,
	baseWS []model.WorkerID, leftTasks []model.TaskID) assign.Result {
	if g.cfg.Scope == LeftoverOnly {
		return g.cfg.Assigner(g.in, center, []model.WorkerID{cand}, leftTasks)
	}
	ws := make([]model.WorkerID, len(baseWS)+1)
	copy(ws, baseWS)
	ws[len(baseWS)] = cand
	return g.cfg.Assigner(g.in, center, ws, center.Tasks)
}

// tracedTrial wraps one trial evaluation in a "trial" span carrying the
// candidate, the evaluation outcome, and — on the resume path — the replay
// profile of the differential engine.
func (g *Game) tracedTrial(runner *assign.TrialRunner, center *model.Center,
	cand model.WorkerID, baseWS []model.WorkerID, leftTasks []model.TaskID,
	traceParent obs.SpanID) assign.Result {
	outcome := "full"
	if runner != nil {
		outcome = "resumed"
	}
	ts := g.cfg.Tracer.Start(traceParent, "trial",
		obs.F("worker", int(cand)), obs.F("outcome", outcome))
	var r assign.Result
	if runner != nil {
		r = runner.Trial(cand)
		copied, replayed := runner.LastReplay()
		ts.End(obs.F("assigned", r.AssignedCount()), obs.F("scanned", r.Stats.TasksScanned),
			obs.F("routes_copied", copied), obs.F("routes_replayed", replayed))
	} else {
		r = g.fullTrial(center, cand, baseWS, leftTasks)
		ts.End(obs.F("assigned", r.AssignedCount()), obs.F("scanned", r.Stats.TasksScanned))
	}
	return r
}

// evalTrials returns one trial re-assignment result per candidate worker,
// in candidate order. Every candidate is evaluated — concurrently when
// cfg.Parallelism != 1 — each writing its result to a fixed slot so the
// output is independent of scheduling order.
//
// When base is non-nil, trials are served by the prefix-resume engine: each
// evaluation replays only the serve-order suffix the candidate perturbs
// against base's snapshot (assign.TrialBase), through the game's persistent
// per-slot runners (rebound here, so their arenas recycle instead of
// allocating). A nil base falls back to one full assigner run per trial.
//
// The returned slice is the game's per-iteration scratch: every result in
// it — and every slice those results carry — is valid only until the next
// evalTrials call. baseWS is the recipient's current worker set (ignored
// for LeftoverOnly); each full-run trial appends its candidate to a private
// copy, so the shared slice is never mutated. leftTasks is read-only for
// the assigners.
//
// With a tracer configured, every trial is wrapped in a "trial" span
// parented to traceParent (the iteration span) carrying the candidate
// worker and its evaluation outcome — "resumed" when the prefix-resume
// engine served it, "full" for a complete assigner run.
func (g *Game) evalTrials(center *model.Center, cands []model.WorkerID,
	baseWS []model.WorkerID, leftTasks []model.TaskID, base *assign.TrialBase,
	traceParent obs.SpanID) []assign.Result {

	if cap(g.trials) < len(cands) {
		g.trials = make([]assign.Result, len(cands))
	}
	trials := g.trials[:len(cands)]
	tr := g.cfg.Tracer

	workers := parallelism(g.cfg.Parallelism)
	if workers > len(cands) {
		workers = len(cands)
	}
	if workers <= 1 {
		var runner *assign.TrialRunner
		if base != nil {
			runner = g.runner(0, base)
		}
		for i := range cands {
			switch {
			case tr != nil:
				trials[i] = g.tracedTrial(runner, center, cands[i], baseWS, leftTasks, traceParent)
			case runner != nil:
				trials[i] = runner.Trial(cands[i])
			default:
				trials[i] = g.fullTrial(center, cands[i], baseWS, leftTasks)
			}
		}
		return trials
	}

	g.evalParallel(center, cands, baseWS, leftTasks, base, traceParent, trials, workers)
	return trials
}

// evalParallel runs the concurrent trial-evaluation pool. It lives in its own
// frame so the goroutine closure does not capture evalTrials' locals — a
// captured-and-reassigned variable is forced onto the heap at declaration,
// which would charge the serial path one allocation per iteration for a
// branch it never takes.
//
// One persistent runner per slot; goroutines pull candidate indices from a
// shared atomic queue and write to fixed slots. The goroutine spawns themselves
// allocate — parallel games trade a little per-iteration garbage for
// wall-clock; the zero-allocation guarantee targets the serial engine.
func (g *Game) evalParallel(center *model.Center, cands []model.WorkerID,
	baseWS []model.WorkerID, leftTasks []model.TaskID, base *assign.TrialBase,
	traceParent obs.SpanID, trials []assign.Result, workers int) {

	tr := g.cfg.Tracer
	if base != nil {
		for s := 0; s < workers; s++ {
			g.runner(s, base)
		}
	}
	mPoolDispatched.Add(int64(len(cands)))
	dispatched := time.Now()
	timed := obs.TimingOn()
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for s := 0; s < workers; s++ {
		go func(slot int) {
			defer wg.Done()
			mPoolWorkers.Add(1)
			defer mPoolWorkers.Add(-1)
			var runner *assign.TrialRunner
			if base != nil {
				runner = g.runners[slot]
			}
			for {
				i := int(next.Add(1) - 1)
				if i >= len(cands) {
					return
				}
				if timed {
					mPoolQueueWait.Observe(time.Since(dispatched).Seconds())
				}
				switch {
				case tr != nil:
					trials[i] = g.tracedTrial(runner, center, cands[i], baseWS, leftTasks, traceParent)
				case runner != nil:
					trials[i] = runner.Trial(cands[i])
				default:
					trials[i] = g.fullTrial(center, cands[i], baseWS, leftTasks)
				}
			}
		}(s)
	}
	wg.Wait()
}
