// Package collab implements phase 2 of IMTAO: the game-theoretic
// inter-center workforce transfer of paper §V (Algorithm 3).
//
// Centers are players; a recipient center's strategy is its borrowing worker
// set BWS(c); utilities are the UUP of Eq. 4. The best-response dynamics is
// specialised exactly as in the paper: in every iteration the recipient
// center with the lowest assignment ratio extends its BWS by the single
// available worker that maximises its post-reassignment ratio, keeps the
// move iff the ratio strictly improves, and drops out of the game otherwise.
// The loop reaches a state where no center can unilaterally improve — a pure
// Nash equilibrium of the collaboration game.
//
// The reassignment step is pluggable, giving the paper's baselines:
//
//	BDC  — bi-directional collaboration: re-run the per-center assigner over
//	       all of the recipient's workers (own + borrowed + candidate).
//	DC   — decomposed collaboration: the candidate worker only receives
//	       leftover tasks; prior routes stay frozen.
//	RBDC — BDC with the recipient picked uniformly at random instead of
//	       by minimum ratio.
//
// Run is the optimized engine (DESIGN.md §11): admissibility pruning skips
// candidates that provably cannot take a task, the resumable trial engine of
// the assign package replays only the serve-order suffix each trial
// perturbs, and the game bookkeeping (ρ vector, assigned counts, candidate
// pool) is maintained incrementally. The engine is exposed as a stepwise
// Game (NewGame/Step/Finish) so harnesses can observe or meter individual
// iterations; Run is the canonical loop over it. In the warmed-up steady
// state one accepted Step performs zero heap allocations (DESIGN.md §13):
// every per-iteration slice comes from recycled scratch, slab arenas or the
// double-buffered per-center promotion buffers. RunReference (frozen.go) is
// the preserved pre-engine loop; both produce bit-identical solutions and
// traces (modulo the trial/prune counters and Duration).
package collab

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"time"

	"imtao/internal/assign"
	"imtao/internal/metrics"
	"imtao/internal/model"
	"imtao/internal/obs"
	"imtao/internal/provenance"
	"imtao/internal/slab"
)

// Game-progress counters, aggregated across every collaboration run of the
// process.
var (
	mIterations = obs.Default.Counter("imtao_collab_iterations_total",
		"game iterations executed (accepted + rejected)")
	mTransfers = obs.Default.Counter("imtao_collab_transfers_total",
		"accepted workforce dispatches")
	mRejections = obs.Default.Counter("imtao_collab_rejections_total",
		"iterations ending with a center leaving the game")
	mTrials = obs.Default.Counter("imtao_collab_trials_total",
		"trial re-assignments evaluated (pruned candidates excluded)")
	mPruned = obs.Default.Counter("imtao_collab_candidates_pruned_total",
		"pool candidates skipped by admissibility pruning (their trials "+
			"provably return the baseline assignment)")
	mResumed = obs.Default.Counter("imtao_collab_resume_trials_total",
		"trials served by the prefix-resume engine instead of a full "+
			"re-assignment")
	mSnapshotBytes = obs.Default.Gauge("imtao_collab_snapshot_bytes",
		"estimated footprint of the current recipient's trial-base snapshot "+
			"(serve order, baseline routes, leftover-task pool)")
	mIterSeconds = obs.Default.Quantile("imtao_collab_iter_seconds",
		"wall time of one game iteration (best-response trial sweep + "+
			"dispatch); exact-rank p50/p90/p99/p999 over every iteration of "+
			"the process")
	mGamePhi = obs.Default.Gauge("imtao_game_phi",
		"potential Φ after the most recent game iteration — falling toward "+
			"its fixed point while the game converges")
)

// RecipientPolicy selects the recipient center each iteration.
type RecipientPolicy int

const (
	// MinRatio picks the center with the lowest assignment ratio
	// (paper Algorithm 3 line 13) — the BDC/DC setting.
	MinRatio RecipientPolicy = iota
	// RandomRecipient picks uniformly at random — the RBDC baseline.
	RandomRecipient
	// MaxLeftover picks the center with the most unassigned tasks — an
	// ablation alternative (DESIGN.md §6) that chases volume rather than
	// fairness.
	MaxLeftover
)

// Scope selects how a recipient reassigns after borrowing a worker.
type Scope int

const (
	// FullReassign re-runs the assigner over the recipient's complete
	// worker set — the paper's bi-directional collaboration.
	FullReassign Scope = iota
	// LeftoverOnly gives the borrowed worker leftover tasks without touching
	// existing routes — the paper's decomposed collaboration (DC).
	LeftoverOnly
)

// Assigner is a per-center assignment routine: Sequential or Optimal from
// the assign package (or any custom policy with the same contract).
type Assigner func(in *model.Instance, c *model.Center, workers []model.WorkerID, tasks []model.TaskID) assign.Result

// CandidatePolicy selects how the dispatched worker is chosen among the
// available pool each iteration (Algorithm 3 line 14).
type CandidatePolicy int

const (
	// BestResponse evaluates every available worker by re-assignment and
	// picks the ratio-maximising one — the paper's best-response step.
	BestResponse CandidatePolicy = iota
	// NearestWorker picks the available worker closest to the recipient
	// center — a cheap heuristic ablation that skips the trial
	// re-assignments (one evaluation per iteration instead of |pool|).
	NearestWorker
)

// PruneMode selects whether admissibility pruning filters trial candidates.
type PruneMode int

// Pruning soundness (DESIGN.md §11) rests on two conditions. First, the
// assigner must give a pruned worker — one that cannot feasibly deliver any
// first task — an empty route, so a pruned candidate's trial equals a plain
// re-run over the unchanged worker set. Second, that plain re-run must not
// itself beat the recipient's CURRENT routes: the phase-1 state has to be a
// fixed point of (or dominate) the game's assigner over the same worker set,
// or the reference dynamics could accept a pruned candidate on the strength
// of the re-run alone. core.Run satisfies this by construction — one
// assigner drives both phases — as do a Sequential game over an Optimal
// phase 1 (Optimal dominates) and every LeftoverOnly run (a pruned DC trial
// serves zero leftover tasks regardless of provenance).
const (
	// PruneAuto (the default) enables pruning exactly when the first
	// condition is provable without caller assumptions: the built-in
	// assign.Sequential (or a nil Assigner, which defaults to it). Custom
	// assigners run unpruned because the pruning argument is
	// assigner-specific.
	PruneAuto PruneMode = iota
	// PruneOn forces pruning. The caller asserts the soundness conditions
	// above — the first holds for assign.Sequential and for unbudgeted
	// assign.Optimal, whose enumeration grows from feasible singletons.
	PruneOn
	// PruneOff disables pruning — required for wall-clock-dependent
	// assigners (e.g. budgeted Optimal), where a pruned candidate's trial
	// is not reproducible anyway, and for phase-1 states produced by a
	// weaker assigner than the game's.
	PruneOff
)

// Config configures a collaboration run.
type Config struct {
	Recipient RecipientPolicy
	Candidate CandidatePolicy
	Scope     Scope
	Assigner  Assigner
	// Rng drives RandomRecipient; ignored otherwise. Required when
	// Recipient == RandomRecipient.
	Rng *rand.Rand
	// MaxIterations caps the game loop as a safety net; 0 means the natural
	// bound (every worker transferred once plus every center dropped once).
	MaxIterations int
	// Parallelism bounds the goroutines evaluating best-response trials
	// within one game iteration. 0 means GOMAXPROCS; 1 forces the legacy
	// serial path. Results are bit-identical at every setting: trials are
	// written to fixed slots and the winner is selected by a serial scan
	// (max ρ, ties to the lowest worker ID). Custom Assigners must be safe
	// for concurrent calls when Parallelism != 1.
	Parallelism int
	// Prune selects admissibility pruning (DESIGN.md §11). The zero value
	// PruneAuto prunes for the built-in Sequential assigner only; pruning
	// never changes the solution or trace beyond the Trials/Pruned
	// counters.
	Prune PruneMode
	// Obs receives one "game_iter" event per iteration carrying the
	// potential Φ, the full ρ vector, trial/prune counts and the
	// iteration latency. Nil (or obs.Nop) disables emission; the TraceStep
	// record is filled either way.
	Obs obs.Observer
	// Tracer records one game_iter span per iteration with one child trial
	// span per evaluated candidate (carrying its resume/full outcome), so a
	// Perfetto timeline shows where the game's wall-clock goes. Nil (the
	// default) records nothing at zero cost.
	Tracer *obs.Tracer
	// TraceParent is the span the iteration spans attach under — core.Run
	// passes its phase-2 span; zero parents them at the trace root.
	TraceParent obs.SpanID
	// Prov, when non-nil, records every iteration of this game into the
	// provenance ledger's game log: recipient, candidate trials with their
	// full/resumed provenance, prune counts and admission slack,
	// Δρ/ΔΦ, and the accepted route delta. Nil (the default) keeps the
	// disabled path at a single pointer check per iteration — the
	// zero-allocation steady state is unchanged (alloc_test.go).
	Prov *provenance.GameLog
	// prunedHook, when non-nil, forces the exact (index-free) admissibility
	// scan and observes every pruned candidate together with the recipient
	// state needed to replay its full trial. Test hook backing the
	// pruning-soundness property test.
	prunedHook func(recipient model.CenterID, w model.WorkerID,
		baseWS []model.WorkerID, leftTasks []model.TaskID, assigned int)
	// members restricts the game to a subset of centers — the sharded
	// engine's group games (groups.go). Only member centers are initialized,
	// selected as recipients or allowed to lend; TraceStep.Rhos/Assigned/
	// Unfairness/Phi switch to shard-local semantics (the member-ordered ρ
	// vector and the members' assigned total). Nil means every center plays
	// (the unsharded engine, global semantics).
	members []model.CenterID
	// poolMask/poolBit gate pool admission per worker: with a non-nil mask a
	// worker enters the pool only when poolMask[w] == poolBit — the sharded
	// engine passes the group label of each worker's home center and the
	// game's own group label, so a group game circulates only the workers
	// homed in its group. The gate covers both the initial LeftWorkers
	// admission and own workers returning to the pool after an accepted
	// reassignment.
	poolMask []uint64
	poolBit  uint64
	// prior seeds the game from a mid-dynamics state instead of a fresh
	// phase-1 one: the prior transfers are replayed into the own/borrowed
	// sets (and appended to the transfer log). The caller asserts the input
	// results describe each center's CURRENT routes/leftovers/unused-own-
	// workers after those transfers — the sharded engine's phase-B reconcile
	// game satisfies this by construction (shard.go).
	prior []model.Transfer
}

// sequentialPtr identifies the built-in Sequential assigner by code pointer,
// surviving the Assigner func-type conversion.
var sequentialPtr = reflect.ValueOf(assign.Sequential).Pointer()

// isSequentialAssigner reports whether a is nil (defaults to Sequential) or
// assign.Sequential itself — the engines that admit exact pruning and
// prefix-resume trials.
func isSequentialAssigner(a Assigner) bool {
	return a == nil || reflect.ValueOf(a).Pointer() == sequentialPtr
}

// TraceStep records one iteration of the collaboration game, feeding the
// convergence analysis of paper Fig. 11.
type TraceStep struct {
	Iteration  int
	Recipient  model.CenterID
	Worker     model.WorkerID // worker evaluated (undefined when none available)
	Source     model.CenterID // the worker's home center
	Accepted   bool
	RhoBefore  float64
	RhoAfter   float64
	Assigned   int     // platform-wide assigned tasks after the step
	Unfairness float64 // platform-wide U_ρ after the step
	// Phi is the game potential Φ after the step — the sum of per-center
	// assignment ratios (metrics.Phi), monotonically non-decreasing along
	// the dynamics.
	Phi float64
	// Rhos is the full per-center ratio vector after the step.
	Rhos []float64
	// Trials counts the trial re-assignments evaluated this iteration: one
	// per candidate left after pruning.
	Trials int
	// MemoHits is always 0. The engines keep no cross-iteration trial
	// cache; the field remains only for callers that still read it.
	MemoHits int
	// Pruned counts pool candidates skipped this iteration by admissibility
	// pruning — their trials provably return the baseline. Resumed counts
	// evaluated trials served by the prefix-resume engine instead of a full
	// re-assignment. Both are zero under RunReference; together with Trials
	// they are diagnostics, not part of the cross-engine equivalence
	// contract.
	Pruned  int
	Resumed int
	// Duration is the iteration's wall-clock time. It is the one TraceStep
	// field outside the determinism contract — everything else (minus the
	// counter diagnostics above) is bit-identical across parallelism levels
	// and engines.
	Duration time.Duration
}

// Result bundles the collaboration outcome.
type Result struct {
	Solution *model.Solution
	Trace    []TraceStep
	// Iterations is the number of game iterations executed (accepted or
	// rejected), matching η in Algorithm 3.
	Iterations int
}

// NoCollaboration assembles the phase-1 results into a Solution without any
// workforce transfer — the paper's w/o-C baseline.
func NoCollaboration(in *model.Instance, phase1 []assign.Result) *model.Solution {
	sol := model.NewSolution(in)
	for ci := range in.Centers {
		sol.PerCenter[ci].Routes = cloneRoutes(phase1[ci].Routes)
	}
	return sol
}

// promoBuf is one half of a center's double-buffered result promotion: a
// flat task slab backing every route of one accepted assignment plus its
// leftover tasks, a route header array pointing into it, and the unused
// worker list. Promoting an accepted trial deep-copies it out of the trial
// runner's arenas (which recycle next iteration) without allocating once the
// buffers reach their high-water capacity.
type promoBuf struct {
	routes []model.Route
	tasks  []model.TaskID // all route tasks, then the leftover tasks
	left   []model.TaskID // the leftover view into tasks' tail
	lws    []model.WorkerID
}

// promote deep-copies r into the buffer. The copy is laid out
// structure-of-arrays style: one contiguous task slab with capacity-clamped
// route views, so the next trial base walks one cache-friendly array.
func (pb *promoBuf) promote(r *assign.Result) {
	total := 0
	for i := range r.Routes {
		total += len(r.Routes[i].Tasks)
	}
	// The buffers regrow with geometric headroom: an accepted dispatch
	// typically adds one route and one task, so exact sizing would realloc
	// on every single accept instead of amortising to zero.
	need := total + len(r.LeftTasks)
	if cap(pb.tasks) < need {
		pb.tasks = make([]model.TaskID, need, growCap(cap(pb.tasks), need))
	} else {
		pb.tasks = pb.tasks[:need]
	}
	if cap(pb.routes) < len(r.Routes) {
		pb.routes = make([]model.Route, len(r.Routes), growCap(cap(pb.routes), len(r.Routes)))
	} else {
		pb.routes = pb.routes[:len(r.Routes)]
	}
	if cap(pb.lws) < len(r.LeftWorkers) {
		pb.lws = make([]model.WorkerID, len(r.LeftWorkers), growCap(cap(pb.lws), len(r.LeftWorkers)))
	} else {
		pb.lws = pb.lws[:len(r.LeftWorkers)]
	}
	off := 0
	for i := range r.Routes {
		rt := &r.Routes[i]
		n := len(rt.Tasks)
		copy(pb.tasks[off:off+n], rt.Tasks)
		pb.routes[i] = model.Route{Worker: rt.Worker, Center: rt.Center,
			Tasks: pb.tasks[off : off+n : off+n]}
		off += n
	}
	copy(pb.tasks[off:], r.LeftTasks)
	pb.left = pb.tasks[off:len(pb.tasks):len(pb.tasks)]
	copy(pb.lws, r.LeftWorkers)
}

// centerState is one center's mutable game state. The own-worker and
// worker sets are ID-sorted slices maintained incrementally, and accepted
// assignments live in the double-buffered promotion slabs — one buffer holds
// the live state the current iteration's trials alias, the other receives
// the accepted result, then they flip.
type centerState struct {
	routes    []model.Route
	leftTasks []model.TaskID
	// own is the ID-sorted set of workers homed here and not lent out.
	own []model.WorkerID
	// borrowed workers received from other centers, in arrival order.
	borrowed []model.WorkerID
	// workers is own ∪ borrowed in ascending ID order, maintained
	// incrementally (the legacy loop rebuilt and sorted it per iteration).
	workers []model.WorkerID
	// assigned is countTasks(routes), maintained incrementally.
	assigned int
	rho      float64
	// slack caches assign.AdmissionSlack for the pruning scope; valid
	// until slackOK is cleared (LeftoverOnly invalidates on accept —
	// its slack covers the mutable leftover set; FullReassign's covers
	// the static center.Tasks).
	slack   float64
	slackOK bool
	// baseline caches the assigner result the prefix-resume engine replays
	// against — the trial base. An accepted trial IS the new baseline
	// (promoted), so steady-state iterations never run the assigner for it;
	// lending a worker out clears baselineOK (the worker set changed).
	baseline   assign.Result
	baselineOK bool
	// promo double-buffers result promotion: promo[flip] backs the live
	// routes/leftTasks/baseline, promo[1-flip] receives the next accepted
	// result (whose trial slices alias promo[flip] — a single buffer would
	// overwrite its own source).
	promo [2]promoBuf
	flip  int
}

// Game is the stepwise optimized collaboration engine. NewGame captures the
// phase-1 state, each Step executes one iteration of Algorithm 3's
// best-response dynamics (returning false once the game is over), and Finish
// assembles the Result and releases pooled scratch. Run wraps the three for
// the common case; harnesses that meter individual iterations (the
// allocation benchmarks) drive Step directly.
//
// A Game is single-use and not safe for concurrent use; within one Step,
// trial evaluation fans out per Config.Parallelism.
type Game struct {
	in        *model.Instance
	cfg       Config
	seqEngine bool
	pruneOn   bool

	states        []centerState
	pool          *workerPool
	totalAssigned int
	rhoVec        []float64
	recipients    []model.CenterID
	// members mirrors cfg.members (nil for the global game); memberRhos is
	// the preallocated member-ordered ρ scratch the shard-local trace path
	// fills each step before snapshotting it into the rhos arena.
	members    []model.CenterID
	memberRhos []float64

	// base is the per-iteration trial-base snapshot, reset in place;
	// runners are the long-lived trial evaluators rebound to it (slot 0
	// serves the serial path, slots 0..P-1 the parallel path).
	base    assign.TrialBase
	runners []*assign.TrialRunner
	// seqScratch serves the Sequential engine's re-baseline runs (a
	// recipient that lent a worker since its last visit) from recycled
	// buffers; the result is promoted into the center's buffers like an
	// accepted trial.
	seqScratch assign.SequentialScratch
	// trials is the per-iteration evaluation scratch.
	trials []assign.Result
	// rhos carves the per-step ρ-vector snapshots (TraceStep.Rhos) from one
	// growing slab instead of one allocation per iteration. Never reset:
	// the snapshots are part of the returned trace.
	rhos slab.Arena[float64]

	maxIter   int
	iter      int
	res       Result
	transfers []model.Transfer
	done      bool
}

// Run executes the multi-center collaboration game (paper Algorithm 3) on
// top of the phase-1 per-center results and returns the final solution with
// its iteration trace. The instance is not mutated.
//
// This is the optimized engine: bit-identical to RunReference in solution,
// transfers and trace (Trials/Pruned/Resumed and Duration aside),
// but with admissibility pruning, prefix-resume trials, incremental
// bookkeeping and recycled per-iteration memory — see DESIGN.md §11 and §13
// for the architecture and the exactness arguments.
func Run(in *model.Instance, phase1 []assign.Result, cfg Config) Result {
	g := NewGame(in, phase1, cfg)
	for g.Step() {
	}
	return g.Finish()
}

// NewGame captures the phase-1 state and prepares the stepwise engine. The
// instance is treated as immutable for the game's lifetime.
func NewGame(in *model.Instance, phase1 []assign.Result, cfg Config) *Game {
	g := &Game{in: in, cfg: cfg}
	g.seqEngine = isSequentialAssigner(cfg.Assigner)
	if g.cfg.Assigner == nil {
		g.cfg.Assigner = assign.Sequential
	}
	// Idempotent: a no-op when core.Run already prepared the instance, and
	// a safety net for direct callers so the trial re-assignments below hit
	// the memoized snap path of a node metric.
	in.PrepareMetric()
	in.EnsureHot()
	n := len(in.Centers)

	g.pruneOn = cfg.Prune == PruneOn || (cfg.Prune == PruneAuto && g.seqEngine)
	if cfg.Candidate == NearestWorker {
		// NearestWorker picks its single candidate over the FULL pool;
		// pre-filtering would change which worker is chosen, so pruning is
		// disabled rather than applied unsoundly.
		g.pruneOn = false
	}

	g.states = make([]centerState, n)
	g.pool = newWorkerPool(in, g.pruneOn)
	g.pool.mask, g.pool.maskBit = cfg.poolMask, cfg.poolBit
	g.rhoVec = make([]float64, n)
	g.members = cfg.members
	if g.members != nil {
		g.memberRhos = make([]float64, len(g.members))
	}
	initCenter := func(ci model.CenterID) {
		st := &g.states[ci]
		st.promo[0].promote(&phase1[ci])
		st.routes = st.promo[0].routes
		st.leftTasks = st.promo[0].left
		st.own = append([]model.WorkerID(nil), in.Centers[ci].Workers...)
		slices.Sort(st.own)
		st.workers = append(make([]model.WorkerID, 0, len(st.own)+8), st.own...)
		st.assigned = countTasks(st.routes)
		g.totalAssigned += st.assigned
		st.rho = metrics.Ratio(st.assigned, len(in.Centers[ci].Tasks))
		g.rhoVec[ci] = st.rho
		for _, w := range phase1[ci].LeftWorkers {
			g.pool.add(w, ci)
		}
	}
	// Line 3–10: recipient set C' = centers with ρ < 1 (member centers only
	// for a shard-restricted game — non-members keep zero states and never
	// appear as recipients or lenders: the pool gate keeps their workers out,
	// and candidate home centers are always pool members' homes).
	if g.members == nil {
		for ci := range in.Centers {
			initCenter(model.CenterID(ci))
		}
		for ci := range in.Centers {
			if g.states[ci].rho < 1 {
				g.recipients = append(g.recipients, model.CenterID(ci))
			}
		}
	} else {
		for _, ci := range g.members {
			initCenter(ci)
		}
		for _, ci := range g.members {
			if g.states[ci].rho < 1 {
				g.recipients = append(g.recipients, ci)
			}
		}
		slices.Sort(g.recipients)
	}

	g.maxIter = cfg.MaxIterations
	if g.maxIter <= 0 {
		// Every accepted iteration raises the recipient's assigned count by
		// at least one task and every rejection permanently removes a
		// center, so |S| + |C| bounds the game length.
		g.maxIter = len(in.Tasks) + n + 1
	}

	// Replay the prior transfers into the worker-set bookkeeping: the input
	// results already describe each center's current routes and unused own
	// workers, so only the own/borrowed/workers sets (built above from the
	// static center rosters) need the lends applied. The replayed transfers
	// seed the transfer log so the final Solution carries the full history.
	for _, tr := range cfg.prior {
		src, dst := &g.states[tr.Src], &g.states[tr.Dst]
		src.own = removeSortedID(src.own, tr.Worker)
		src.workers = removeSortedID(src.workers, tr.Worker)
		dst.borrowed = appendGrown(dst.borrowed, tr.Worker)
		dst.workers = insertSortedID(dst.workers, tr.Worker)
		g.pool.remove(tr.Worker)
		g.transfers = append(g.transfers, tr)
	}
	return g
}

// Iterations returns the number of iterations executed so far.
func (g *Game) Iterations() int { return g.iter }

// Over reports whether the game has terminated (a subsequent Step would
// return false).
func (g *Game) Over() bool {
	return g.done || g.iter >= g.maxIter || len(g.recipients) == 0 || g.pool.len() == 0
}

// Reserve pre-grows the per-iteration output buffers — the trace, the
// transfer log and the ρ-snapshot slab — for n further iterations. Purely a
// performance hint: a reserved steady-state Step appends its outputs without
// growing anything, which the zero-allocation gates rely on.
func (g *Game) Reserve(n int) {
	if cap(g.res.Trace)-len(g.res.Trace) < n {
		t := make([]TraceStep, len(g.res.Trace), len(g.res.Trace)+n)
		copy(t, g.res.Trace)
		g.res.Trace = t
	}
	if cap(g.transfers)-len(g.transfers) < n {
		t := make([]model.Transfer, len(g.transfers), len(g.transfers)+n)
		copy(t, g.transfers)
		g.transfers = t
	}
	rhoLen := len(g.rhoVec)
	if g.members != nil {
		rhoLen = len(g.members)
	}
	g.rhos.Reserve(n * rhoLen)
}

// Step executes one game iteration (Algorithm 3 lines 13–21) and reports
// whether it ran; false means the game was already over and no state
// changed. After the first false, Finish assembles the Result.
func (g *Game) Step() bool {
	if g.Over() {
		return false
	}
	g.iter++
	iter := g.iter
	iterStart := time.Now()
	cfg := &g.cfg
	in := g.in
	g.res.Iterations = iter
	mIterations.Inc()
	var iterTS obs.TraceSpan
	if cfg.Tracer != nil {
		iterTS = cfg.Tracer.Start(cfg.TraceParent, "game_iter", obs.F("iter", iter))
	}
	// Line 13: recipient selection — served from the maintained ρ vector
	// instead of a per-iteration rebuild.
	var ci model.CenterID
	switch cfg.Recipient {
	case RandomRecipient:
		ci = g.recipients[cfg.Rng.Intn(len(g.recipients))]
	case MaxLeftover:
		ci = g.recipients[0]
		for _, c := range g.recipients[1:] {
			if len(g.states[c].leftTasks) > len(g.states[ci].leftTasks) ||
				(len(g.states[c].leftTasks) == len(g.states[ci].leftTasks) && c < ci) {
				ci = c
			}
		}
	default:
		ci = metrics.MinRatioCenter(g.rhoVec, g.recipients)
	}
	st := &g.states[ci]
	center := in.Center(ci)

	// Candidate workers: available pool minus the recipient's own (its own
	// unused workers are already in its worker set). With pruning,
	// candidates that cannot feasibly deliver any first task are dropped
	// here — their trials provably return the baseline and can never win
	// the strict-improvement scan below. The candidate list is pool
	// scratch, valid for this iteration only.
	var cands []model.WorkerID
	pruned := 0
	var prunedList []model.WorkerID
	switch {
	case cfg.Candidate == NearestWorker:
		cands = g.pool.candidates(ci)
		if len(cands) > 1 {
			// Heuristic ablation: only evaluate the nearest available
			// worker. Ties break by ID via the pre-sorted order.
			best := cands[0]
			bd := in.Worker(best).Loc.Dist2(center.Loc)
			for _, w := range cands[1:] {
				if d := in.Worker(w).Loc.Dist2(center.Loc); d < bd {
					best, bd = w, d
				}
			}
			cands[0] = best
			cands = cands[:1]
		}
	case g.pruneOn:
		if !st.slackOK {
			if cfg.Scope == LeftoverOnly {
				st.slack = assign.AdmissionSlack(in, center, st.leftTasks)
			} else {
				st.slack = assign.AdmissionSlack(in, center, center.Tasks)
			}
			st.slackOK = true
		}
		var onPruned func(model.WorkerID)
		if cfg.prunedHook != nil {
			onPruned = func(w model.WorkerID) { prunedList = append(prunedList, w) }
		}
		cands, pruned = g.pool.admissible(center, ci, st.slack, onPruned)
	default:
		cands = g.pool.candidates(ci)
	}
	mPruned.Add(int64(pruned))
	// Provenance captures the admission slack that did the cutting while it
	// is still live (DC invalidates the cache on accept, below).
	provSlack := -1.0
	if g.pruneOn && cfg.Candidate != NearestWorker {
		provSlack = st.slack
	}

	// Line 14: best response — the candidate maximising the
	// post-reassignment ratio. Line 15: evaluated via re-assignment.
	// Trials are independent of each other, so they are evaluated
	// concurrently into fixed slots; the winner is then picked by the same
	// serial scan as the reference loop, keeping the output bit-identical.
	var baseWS []model.WorkerID
	if cfg.Scope != LeftoverOnly {
		baseWS = st.workers
	}
	for _, w := range prunedList {
		cfg.prunedHook(ci, w, baseWS, st.leftTasks, st.assigned)
	}

	// The prefix-resume trial base: for the Sequential engine, trials
	// resume from the candidate's serve-order position against the center's
	// baseline assignment instead of re-running every worker. The base and
	// its runners are long-lived — Reset/Rebind recycle their arrays.
	var base *assign.TrialBase
	if g.seqEngine && len(cands) > 0 {
		if cfg.Scope == LeftoverOnly {
			// DC trials serve one worker over the leftover tasks: the
			// baseline is the empty assignment over those tasks.
			if g.base.Reset(in, center, nil, nil, st.leftTasks) {
				base = &g.base
			}
		} else {
			if !st.baselineOK {
				// seqEngine holds here, so the scratch run IS the configured
				// assigner; its result lives in recycled buffers, so promote
				// it into the center's spare buffer and flip, exactly like an
				// accepted trial. The flip matters: trial results alias the
				// baseline's route storage (the preserved-suffix fast path),
				// so the baseline must occupy the buffer the next accepted
				// promotion does NOT write. st.routes/st.leftTasks keep the
				// center's current assignment — the baseline is a trial-
				// resume aid, not the state (they coincide only when phase 1
				// used the same assigner).
				fresh := g.seqScratch.Run(in, center, baseWS, center.Tasks)
				pb := &st.promo[1-st.flip]
				pb.promote(&fresh)
				st.flip = 1 - st.flip
				st.baseline = assign.Result{Routes: pb.routes,
					LeftTasks: pb.left, LeftWorkers: pb.lws, Stats: fresh.Stats}
				st.baselineOK = true
			}
			if g.base.Reset(in, center, baseWS, st.baseline.Routes, st.baseline.LeftTasks) {
				base = &g.base
			}
		}
		if base != nil {
			mSnapshotBytes.Set(float64(base.FootprintBytes()))
		}
	}
	trials := g.evalTrials(center, cands, baseWS, st.leftTasks, base, iterTS.ID())
	evaluated := len(cands)
	resumed := 0
	if base != nil {
		resumed = evaluated
	}
	mTrials.Add(int64(evaluated))
	mResumed.Add(int64(resumed))

	bestRho := st.rho
	bestIdx := -1
	bestAssigned := st.assigned
	for i := range cands {
		newAssigned := trials[i].AssignedCount()
		if cfg.Scope == LeftoverOnly {
			newAssigned += st.assigned
		}
		newRho := metrics.Ratio(newAssigned, len(center.Tasks))
		if newRho > bestRho+rhoEps {
			bestRho = newRho
			bestIdx = i
			bestAssigned = newAssigned
		}
	}

	step := TraceStep{
		Iteration: iter, Recipient: ci, RhoBefore: st.rho,
		Trials: evaluated, Pruned: pruned, Resumed: resumed,
	}
	// provDelta/provReplace carry the accepted route delta to the ledger
	// hook below; locals so the disabled path costs nothing.
	var provDelta []model.Route
	provReplace := false
	if bestIdx < 0 {
		// Lines 20–21: no improving dispatch — the center leaves C'.
		step.Accepted = false
		step.RhoAfter = st.rho
		g.recipients = removeCenter(g.recipients, ci)
		mRejections.Inc()
	} else {
		// Lines 16–19: accept the dispatch and update the assignment.
		bestRes := &trials[bestIdx]
		w := cands[bestIdx]
		src := g.pool.homeOf(w)
		g.pool.remove(w)
		step.Worker = w
		step.Source = src
		step.Accepted = true
		step.RhoAfter = bestRho

		// The lender loses the worker from its own set.
		g.states[src].own = removeSortedID(g.states[src].own, w)
		g.states[src].workers = removeSortedID(g.states[src].workers, w)
		st.borrowed = appendGrown(st.borrowed, w)
		st.workers = insertSortedID(st.workers, w)
		g.transfers = append(g.transfers, model.Transfer{Src: src, Dst: ci, Worker: w})
		mTransfers.Inc()
		// The lender's trial baseline usually survives the lend: a worker
		// with an empty route consumes nothing from the task pool, so
		// Sequential over the set minus that worker serves every other
		// worker identically — the new baseline is the old one with w
		// dropped from LeftWorkers. The pool tracks the CURRENT state's
		// unused workers, not the baseline's, so membership is checked
		// against the baseline itself; a miss means w was used there and
		// the baseline is truly stale (possible only while the lender
		// still carries a non-Sequential phase-1 assignment).
		if srcSt := &g.states[src]; srcSt.baselineOK {
			n := len(srcSt.baseline.LeftWorkers)
			srcSt.baseline.LeftWorkers = removeSortedID(srcSt.baseline.LeftWorkers, w)
			if len(srcSt.baseline.LeftWorkers) == n {
				srcSt.baselineOK = false
			}
		}

		if cfg.Scope == LeftoverOnly {
			st.routes = append(st.routes, cloneRoutes(bestRes.Routes)...)
			st.leftTasks = append(st.leftTasks[:0:0], bestRes.LeftTasks...)
			// The leftover set shrank, so the cached admission slack
			// (computed over it) is stale.
			st.slackOK = false
			// DC appends the trial's routes to the frozen prior ones.
			provDelta = bestRes.Routes
		} else {
			// Promote the accepted result out of the trial arenas into the
			// center's spare promotion buffer — the live buffer may back
			// the very slices bestRes aliases — then flip. The promoted
			// copy is both the new current state and (for the Sequential
			// engine) the next trial base: the accepted trial IS Sequential
			// over the new worker set.
			pb := &st.promo[1-st.flip]
			pb.promote(bestRes)
			st.flip = 1 - st.flip
			st.routes = pb.routes
			st.leftTasks = pb.left
			// FullReassign replaces the recipient's complete route set.
			provDelta, provReplace = st.routes, true
			if g.seqEngine {
				st.baseline = assign.Result{Routes: pb.routes,
					LeftTasks: pb.left, LeftWorkers: pb.lws, Stats: bestRes.Stats}
				st.baselineOK = true
			} else {
				st.baselineOK = false
			}
			// Bi-directional update: sync the pool with the recipient's own
			// workers' new usage. Own workers used by the new plan leave
			// the pool; own workers now unused become available. Both sides
			// are ID-sorted for the built-in assigners, so a merge walk
			// replaces the former membership map; an unsorted LeftWorkers
			// (custom assigner) falls back to the map.
			lws := bestRes.LeftWorkers
			if slices.IsSorted(lws) {
				li := 0
				for _, ow := range st.own {
					for li < len(lws) && lws[li] < ow {
						li++
					}
					if li < len(lws) && lws[li] == ow {
						g.pool.add(ow, ci)
					} else {
						g.pool.remove(ow)
					}
				}
			} else {
				leftSet := make(map[model.WorkerID]bool, len(lws))
				for _, lw := range lws {
					leftSet[lw] = true
				}
				for _, ow := range st.own {
					if leftSet[ow] {
						g.pool.add(ow, ci)
					} else {
						g.pool.remove(ow)
					}
				}
			}
		}
		g.totalAssigned += bestAssigned - st.assigned
		st.assigned = bestAssigned
		st.rho = bestRho
		g.rhoVec[ci] = bestRho
		if st.rho >= 1-rhoEps {
			g.recipients = removeCenter(g.recipients, ci)
		}
	}
	// Unfairness and Φ are recomputed from the maintained ρ vector each
	// step: incremental float updates would drift from the reference bit
	// pattern, while the vector itself is maintained exactly. A
	// shard-restricted game snapshots the member-ordered vector instead —
	// its trace carries shard-local Φ/U_ρ (DESIGN.md §15).
	var rv []float64
	if g.members == nil {
		rv = g.rhos.Copy(g.rhoVec)
	} else {
		for i, mci := range g.members {
			g.memberRhos[i] = g.rhoVec[mci]
		}
		rv = g.rhos.Copy(g.memberRhos)
	}
	step.Assigned = g.totalAssigned
	step.Unfairness = metrics.Unfairness(rv)
	step.Phi = metrics.Phi(rv)
	step.Rhos = rv
	step.Duration = time.Since(iterStart)
	mIterSeconds.ObserveDuration(step.Duration)
	mGamePhi.Set(step.Phi)
	g.res.Trace = append(g.res.Trace, step)
	if cfg.Prov != nil {
		cfg.Prov.RecordIter(provenance.IterInfo{
			Iter: iter, Recipient: ci, Accepted: step.Accepted,
			Worker: step.Worker, Source: step.Source,
			RhoBefore: step.RhoBefore, RhoAfter: step.RhoAfter,
			Phi: step.Phi, Pruned: pruned, Slack: provSlack,
		}, cands, trials, base != nil, provDelta, provReplace)
	}
	emitGameIter(cfg.Obs, &step)
	if cfg.Tracer != nil {
		iterTS.End(
			obs.F("recipient", int(ci)),
			obs.F("accepted", step.Accepted),
			obs.F("trials", evaluated),
			obs.F("pruned", pruned),
			obs.F("resumed", resumed),
			obs.F("rho_after", step.RhoAfter))
	}
	return true
}

// Finish releases the engine's pooled scratch and assembles the final
// Result. Idempotent; Step returns false afterwards.
func (g *Game) Finish() Result {
	if !g.done {
		g.done = true
		for _, r := range g.runners {
			if r != nil {
				r.Release()
			}
		}
		g.runners = nil
		sol := model.NewSolution(g.in)
		for ci := range g.states {
			sol.PerCenter[ci].Routes = cloneRoutes(g.states[ci].routes)
		}
		sol.Transfers = g.transfers
		g.res.Solution = sol
	}
	return g.res
}

// emitGameIter publishes one game_iter telemetry event for a completed
// iteration; shared by Run and RunReference so the stream schema stays
// identical across engines.
func emitGameIter(o obs.Observer, step *TraceStep) {
	if !obs.Enabled(o) {
		return
	}
	fields := make([]obs.Field, 0, 16)
	fields = append(fields,
		obs.F("iter", step.Iteration),
		obs.F("recipient", int(step.Recipient)),
		obs.F("accepted", step.Accepted))
	if step.Accepted {
		fields = append(fields,
			obs.F("worker", int(step.Worker)),
			obs.F("source", int(step.Source)))
	}
	fields = append(fields,
		obs.F("rho_before", step.RhoBefore),
		obs.F("rho_after", step.RhoAfter),
		obs.F("phi", step.Phi),
		obs.F("rhos", step.Rhos),
		obs.F("assigned", step.Assigned),
		obs.F("unfairness", step.Unfairness),
		obs.F("trials", step.Trials),
		obs.F("pruned", step.Pruned),
		obs.F("resumed", step.Resumed),
		obs.F("duration_ms", obs.DurationMs(step.Duration)))
	o.Event("game_iter", fields...)
}

const rhoEps = 1e-12

// growCap picks a reallocation capacity: at least double the old buffer,
// with a floor of the immediate need plus slack.
func growCap(oldCap, need int) int {
	c := 2 * oldCap
	if c < need+need/4+16 {
		c = need + need/4 + 16
	}
	return c
}

func countTasks(routes []model.Route) int {
	n := 0
	for _, r := range routes {
		n += len(r.Tasks)
	}
	return n
}

func cloneRoutes(rs []model.Route) []model.Route {
	out := make([]model.Route, len(rs))
	for i, r := range rs {
		out[i] = model.Route{Worker: r.Worker, Center: r.Center, Tasks: append([]model.TaskID(nil), r.Tasks...)}
	}
	return out
}

func removeCenter(cs []model.CenterID, c model.CenterID) []model.CenterID {
	for i, x := range cs {
		if x == c {
			return append(cs[:i], cs[i+1:]...)
		}
	}
	return cs
}

// insertSortedID returns ids (ascending) with w inserted in order.
func insertSortedID(ids []model.WorkerID, w model.WorkerID) []model.WorkerID {
	i := sort.Search(len(ids), func(j int) bool { return ids[j] >= w })
	ids = appendGrown(ids, 0)
	copy(ids[i+1:], ids[i:])
	ids[i] = w
	return ids
}

// appendGrown is append with growCap headroom: the borrowed/worker sets grow
// by one element per accepted iteration for hundreds of iterations, so the
// built-in small-slice doubling would re-allocate on a majority of steps.
func appendGrown[T any](s []T, v T) []T {
	if len(s) == cap(s) {
		grown := make([]T, len(s), growCap(cap(s), len(s)+1))
		copy(grown, s)
		s = grown
	}
	return append(s, v)
}

// removeSortedID returns ids (ascending) with w removed, preserving order.
func removeSortedID(ids []model.WorkerID, w model.WorkerID) []model.WorkerID {
	i := sort.Search(len(ids), func(j int) bool { return ids[j] >= w })
	if i == len(ids) || ids[i] != w {
		return ids
	}
	copy(ids[i:], ids[i+1:])
	return ids[:len(ids)-1]
}
