// Package provenance is the assignment decision ledger of DESIGN.md §17: a
// compact, machine-readable record of WHY every task ended up assigned,
// transferred or stranded. A Ledger captures the full lifecycle of one IMTAO
// run — phase-1 routes and deadline-rejection scan events, every phase-2
// best-response iteration (recipient choice, admission-radius pruning, trial
// outcomes with their full/resumed provenance, accepted and rejected
// dispatches with Δρ/ΔΦ), shard and boundary-exchange structure under the
// sharded engine, and the final routes with per-task arrival times — plus an
// equilibrium Certificate of per-center best-response witnesses that
// re-validates offline without re-running the game.
//
// The ledger is attached via imtao.WithProvenance and returned on
// Report.Provenance; Ledger.WriteTo streams it through the internal/obs
// JSONL encoder (schema-versioned prov_* record types) and ReadLedger parses
// it back, so cmd/imtao-explain can answer "why task T / why-not worker W /
// transfer chain for center C" from a file long after the run.
//
// Recording discipline: every hook on the engines' hot paths is a single
// nil-check when no ledger is attached (the AllocsPerRun gates in
// internal/collab pin the disabled path at zero allocations), and the
// enabled path appends fixed-size records into growing arenas — bounded,
// amortized-constant overhead per iteration (gated on the 100k game bench).
//
// Replay(l) deterministically reconstructs the run's exact final solution
// from the ledger alone — including the sharded engine's min-(ρ, center)
// merge interleave, re-derived from the per-step ρ values rather than
// recorded — which is both the property test anchoring the ledger's
// completeness (fingerprint match against the live Report) and the
// attribution engine behind the explain queries.
package provenance

import (
	"sync"

	"imtao/internal/assign"
	"imtao/internal/model"
	"imtao/internal/slab"
)

// Stage labels for GameLog.Stage.
const (
	// StageGame marks a phase-A (or unsharded) best-response game log.
	StageGame = "game"
	// StageExchange marks a boundary-reconcile exchange game log (one per
	// conflict component, or a single serialized one).
	StageExchange = "exchange"
)

// Scope labels for Meta.Scope and Certificate.Scope.
const (
	// ScopeFull: phase-2 deviations re-assign the recipient's full task set
	// (BDC/RBDC).
	ScopeFull = "full"
	// ScopeLeftover: deviations only serve leftover tasks (DC).
	ScopeLeftover = "leftover"
	// ScopeNone: no phase 2 at all (w/o-C).
	ScopeNone = "none"
)

// Trial evaluation modes recorded per candidate.
const (
	// TrialMemo: the trial came from a cross-iteration cache. The engines
	// no longer keep one and never record this mode; it keeps its value so
	// ledgers written by earlier versions still decode and explain.
	TrialMemo = uint8(iota)
	// TrialFull: a complete assigner run.
	TrialFull
	// TrialResumed: served by the prefix-resume engine.
	TrialResumed
)

// Meta describes the run a ledger records.
type Meta struct {
	Method  string
	Engine  string // "game", "sharded" or "none" (w/o-C)
	Scope   string // "full" (BDC/RBDC), "leftover" (DC) or "none"
	Centers int
	Workers int
	Tasks   int
	Seed    int64
}

// RecordedRoute is one worker's route as recorded in the ledger — phase-1
// routes and per-iteration route deltas alike.
type RecordedRoute struct {
	Worker model.WorkerID
	Tasks  []model.TaskID
}

// CenterPhase1 is one center's phase-1 outcome: the game's starting state.
type CenterPhase1 struct {
	Center      model.CenterID
	Tasks       int // |S_c|
	Assigned    int
	Rho         float64
	LeftWorkers []model.WorkerID
	LeftTasks   []model.TaskID
	Routes      []RecordedRoute
}

// ScanEvent is one phase-1 deadline rejection: worker's greedy sequence at
// its center ended because the nearest remaining task would be reached after
// its expiry (paper Algorithm 2 line 11 — under uniform expiry the first
// failing nearest task ends the sequence).
type ScanEvent struct {
	Worker model.WorkerID
	Task   model.TaskID
	Arrive float64
	Expiry float64
}

// IterRec is one recorded game iteration. Trial and route-delta payloads
// live in the owning GameLog's arenas, indexed by the Off/N pairs.
type IterRec struct {
	Iter      int // stage-local, 1-based
	Recipient model.CenterID
	Accepted  bool
	Worker    model.WorkerID // dispatched worker (accepted only)
	Source    model.CenterID // its home center (accepted only)
	RhoBefore float64
	RhoAfter  float64
	Phi       float64 // stage-local potential after the step
	Pruned    int     // pool candidates cut by the admission radius
	Slack     float64 // admission slack that did the cutting; -1 = pruning off
	// TrialOff/TrialN index the log's trial arena: one TrialRec per
	// considered candidate, in candidate (ascending worker ID) order.
	TrialOff, TrialN int
	// RouteOff/RouteN index the log's route arena: the recipient's new
	// routes after an accepted step. Replace true means the delta is the
	// recipient's complete new route set (FullReassign); false appends to
	// the existing set (DC's LeftoverOnly). Rejected steps carry no delta.
	RouteOff, RouteN int
	Replace          bool
}

// TrialRec is one candidate's evaluated trial outcome.
type TrialRec struct {
	Worker   model.WorkerID
	Assigned int32 // tasks the trial assignment would serve
	Mode     uint8 // TrialMemo / TrialFull / TrialResumed
}

// GameLog records one best-response game: the unsharded engine's single
// game, one phase-A shard game, or one boundary-exchange (component) game.
// Logs are created in deterministic order (shards ascending, then exchange
// components ascending) — Replay relies on that order.
type GameLog struct {
	Stage string
	Shard int // shard / component index; -1 for a global game
	Iters []IterRec

	trials  []TrialRec
	routes  []RecordedRoute
	taskArb slab.Arena[model.TaskID]
}

// Trials returns the trial records of one iteration.
func (l *GameLog) Trials(it *IterRec) []TrialRec {
	return l.trials[it.TrialOff : it.TrialOff+it.TrialN]
}

// RouteDelta returns the recorded route delta of one accepted iteration.
func (l *GameLog) RouteDelta(it *IterRec) []RecordedRoute {
	return l.routes[it.RouteOff : it.RouteOff+it.RouteN]
}

// IterInfo is the per-iteration summary the game engine hands to
// RecordIter; it mirrors collab.TraceStep without importing it (collab
// imports this package).
type IterInfo struct {
	Iter      int
	Recipient model.CenterID
	Accepted  bool
	Worker    model.WorkerID
	Source    model.CenterID
	RhoBefore float64
	RhoAfter  float64
	Phi       float64
	Pruned    int
	Slack     float64 // pass -1 when pruning was off this iteration
}

// RecordIter appends one iteration to the log. trials[i] is the outcome for
// cands[i], and resumed tells whether the trials went through the
// prefix-resume engine.
// newRoutes is the recipient's accepted route delta (nil on rejects):
// its complete new route set when replace, the appended routes otherwise.
// The route tasks are deep-copied into the log's arena — callers may
// recycle them immediately.
func (l *GameLog) RecordIter(info IterInfo, cands []model.WorkerID,
	trials []assign.Result, resumed bool,
	newRoutes []model.Route, replace bool) {

	rec := IterRec{
		Iter: info.Iter, Recipient: info.Recipient, Accepted: info.Accepted,
		Worker: info.Worker, Source: info.Source,
		RhoBefore: info.RhoBefore, RhoAfter: info.RhoAfter, Phi: info.Phi,
		Pruned: info.Pruned, Slack: info.Slack,
		TrialOff: len(l.trials), TrialN: len(cands),
		RouteOff: len(l.routes), RouteN: len(newRoutes), Replace: replace,
	}
	mode := TrialFull
	if resumed {
		mode = TrialResumed
	}
	for i, w := range cands {
		l.trials = appendGrown(l.trials, TrialRec{
			Worker: w, Assigned: int32(trials[i].AssignedCount()), Mode: mode})
	}
	for _, rt := range newRoutes {
		l.routes = appendGrown(l.routes, RecordedRoute{
			Worker: rt.Worker, Tasks: l.taskArb.Copy(rt.Tasks)})
	}
	l.Iters = appendGrown(l.Iters, rec)
}

// ShardInfo describes the sharded engine's partition, mirroring the fields
// of collab.ShardReport the replay and explain paths need.
type ShardInfo struct {
	Shards            int
	ShardOf           []int
	BoundaryWorkers   int
	ExclusiveWorkers  int
	EmptyCut          bool
	Components        int
	ExchangeIters     int
	ExchangeTransfers int
}

// FinalRoute is one final route with its cost breakdown: per-task arrival
// times against expiries, and the route's total duration in hours.
type FinalRoute struct {
	Worker model.WorkerID
	Center model.CenterID
	Tasks  []model.TaskID
	Arrive []float64 // arrival time at each task, hours from dispatch
	Expiry []float64 // each task's expiry, hours
	Hours  float64   // total route duration (center leg included)
}

// Final is the run's outcome section.
type Final struct {
	Assigned    int
	Unfairness  float64
	Fingerprint uint64 // SolutionFingerprint of the final solution
	Transfers   []model.Transfer
	Routes      []FinalRoute
}

// Ledger is one run's full decision record. Create with NewLedger, attach
// via imtao.WithProvenance (core.Config.Prov), then query in memory or
// WriteTo/ReadLedger a JSONL file.
//
// Concurrency: phase-1 scan recorders write disjoint per-center slots and
// shard games write disjoint pre-created GameLogs, so recording needs no
// locking on the hot paths; NewGameLog itself is mutex-guarded.
type Ledger struct {
	mu sync.Mutex

	Meta   Meta
	Phase1 []CenterPhase1
	// Scans[c] holds center c's phase-1 deadline-rejection events
	// (Sequential assigner only; Optimal's search has no single rejection
	// point worth recording).
	Scans [][]ScanEvent
	// Logs in creation order: phase-A game logs in shard order, then
	// exchange logs in component order. An unsharded run has one StageGame
	// log with Shard -1; a w/o-C run has none.
	Logs  []*GameLog
	Shard *ShardInfo
	Final *Final
	Cert  *Certificate
}

// NewLedger returns an empty ledger ready to attach to a run.
func NewLedger() *Ledger { return &Ledger{} }

// Start records the run metadata and sizes the per-center sections.
func (l *Ledger) Start(m Meta) {
	l.Meta = m
	l.Scans = make([][]ScanEvent, m.Centers)
}

// NewGameLog creates, registers and returns the next game log. Call in
// deterministic order (see Ledger.Logs); safe for concurrent use, though
// the engines create logs before fanning out.
func (l *Ledger) NewGameLog(stage string, shard int) *GameLog {
	g := &GameLog{Stage: stage, Shard: shard}
	l.mu.Lock()
	l.Logs = append(l.Logs, g)
	l.mu.Unlock()
	return g
}

// ScanRecorder returns center ci's phase-1 scan observer (assign.Options
// Scan hook). Recorders for distinct centers may record concurrently.
func (l *Ledger) ScanRecorder(ci model.CenterID) assign.ScanObserver {
	return &scanRecorder{l: l, ci: ci}
}

type scanRecorder struct {
	l  *Ledger
	ci model.CenterID
}

func (s *scanRecorder) RejectDeadline(w model.WorkerID, t model.TaskID, arrive, expiry float64) {
	s.l.Scans[s.ci] = append(s.l.Scans[s.ci],
		ScanEvent{Worker: w, Task: t, Arrive: arrive, Expiry: expiry})
}

// RecordPhase1 captures the phase-1 per-center outcomes — the game's
// starting state and the replay's base layer. rhos is the per-center ratio
// vector (metrics.Ratios order).
func (l *Ledger) RecordPhase1(in *model.Instance, phase1 []assign.Result, rhos []float64) {
	l.Phase1 = make([]CenterPhase1, len(phase1))
	for ci := range phase1 {
		r := &phase1[ci]
		cp := CenterPhase1{
			Center:      model.CenterID(ci),
			Tasks:       len(in.Centers[ci].Tasks),
			Assigned:    r.AssignedCount(),
			Rho:         rhos[ci],
			LeftWorkers: append([]model.WorkerID(nil), r.LeftWorkers...),
			LeftTasks:   append([]model.TaskID(nil), r.LeftTasks...),
			Routes:      make([]RecordedRoute, len(r.Routes)),
		}
		for i := range r.Routes {
			cp.Routes[i] = RecordedRoute{
				Worker: r.Routes[i].Worker,
				Tasks:  append([]model.TaskID(nil), r.Routes[i].Tasks...),
			}
		}
		l.Phase1[ci] = cp
	}
}

// RecordShard captures the sharded engine's partition summary.
func (l *Ledger) RecordShard(s ShardInfo) { l.Shard = &s }

// RecordFinal captures the run's final solution: the transfer log, every
// route with its per-task arrival-time cost breakdown, and the solution
// fingerprint the replay property is pinned against.
func (l *Ledger) RecordFinal(in *model.Instance, sol *model.Solution, unfairness float64) {
	f := &Final{
		Assigned:    sol.AssignedCount(),
		Unfairness:  unfairness,
		Fingerprint: SolutionFingerprint(sol),
		Transfers:   append([]model.Transfer(nil), sol.Transfers...),
	}
	for ci := range sol.PerCenter {
		c := in.Center(model.CenterID(ci))
		cref := in.CenterRef(model.CenterID(ci))
		for _, rt := range sol.PerCenter[ci].Routes {
			fr := FinalRoute{
				Worker: rt.Worker,
				Center: model.CenterID(ci),
				Tasks:  append([]model.TaskID(nil), rt.Tasks...),
				Arrive: make([]float64, len(rt.Tasks)),
				Expiry: make([]float64, len(rt.Tasks)),
			}
			w := in.Worker(rt.Worker)
			t := in.TravelTimeRef(w.Loc, in.WorkerRef(rt.Worker), c.Loc, cref)
			cur, curRef := c.Loc, cref
			for i, tid := range rt.Tasks {
				task := in.Task(tid)
				tref := in.TaskRef(tid)
				t += in.TravelTimeRef(cur, curRef, task.Loc, tref)
				fr.Arrive[i] = t
				fr.Expiry[i] = task.Expiry
				cur, curRef = task.Loc, tref
			}
			fr.Hours = t
			f.Routes = append(f.Routes, fr)
		}
	}
	l.Final = f
}

// IterCount returns the total recorded iterations across all logs.
func (l *Ledger) IterCount() int {
	n := 0
	for _, g := range l.Logs {
		n += len(g.Iters)
	}
	return n
}

// TrialCount returns the total recorded trial records across all logs.
func (l *Ledger) TrialCount() int {
	n := 0
	for _, g := range l.Logs {
		n += len(g.trials)
	}
	return n
}

// appendGrown is append with geometric headroom floored well above the
// built-in small-slice growth — the logs grow by a few records per
// iteration for hundreds of iterations.
func appendGrown[T any](s []T, v T) []T {
	if len(s) == cap(s) {
		need := len(s) + 1
		c := 2 * cap(s)
		if c < need+need/4+16 {
			c = need + need/4 + 16
		}
		grown := make([]T, len(s), c)
		copy(grown, s)
		s = grown
	}
	return append(s, v)
}
