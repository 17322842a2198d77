// Package imtao is the public API of this reproduction of "Optimizing
// Multi-Center Collaboration for Task Assignment in Spatial Crowdsourcing"
// (ICDE 2025): the Collaborative Multi-Center Task Assignment (CMCTA)
// problem and the Iterative Multi-center Task Assignment and Optimization
// (IMTAO) framework.
//
// # Overview
//
// A spatial-crowdsourcing platform runs several distribution centers. Every
// task and worker belongs to the center whose Voronoi cell contains it.
// IMTAO assigns tasks in two phases: an efficient per-center sequential
// assignment, followed by a game-theoretic inter-center workforce transfer
// that dispatches surplus workers to overloaded centers, maximizing the
// number of assigned tasks while minimizing the unfairness of per-center
// assignment ratios.
//
// # Quick start
//
//	params := imtao.DefaultParams(imtao.SYN)
//	report, err := imtao.Solve(params, imtao.SeqBDC)
//	if err != nil { ... }
//	fmt.Println(report.Assigned, report.Unfairness)
//
// Custom scenarios are assembled with a Builder:
//
//	b := imtao.NewBuilder(2000, 2000, 30 /* km/h */)
//	b.AddCenter(500, 500)
//	b.AddCenter(1500, 500)
//	b.AddWorker(480, 520, 4)
//	b.AddTask(520, 480, 1.0, 1.0)
//	in, err := b.Build() // partitioned instance
//	report, err := imtao.Run(in, imtao.SeqBDC)
//
// The eight method presets of the paper — {Seq, Opt} × {BDC, RBDC, DC,
// w/o-C} — are exposed as constants; SeqBDC is the paper's proposed method.
package imtao

import (
	"io"
	"time"

	"imtao/internal/collab"
	"imtao/internal/core"
	"imtao/internal/geo"
	"imtao/internal/metrics"
	"imtao/internal/model"
	"imtao/internal/obs"
	"imtao/internal/provenance"
	"imtao/internal/roadnet"
	"imtao/internal/workload"
)

// Re-exported model vocabulary. These aliases make the internal packages'
// types part of the public API without duplicating them.
type (
	// Instance is a complete CMCTA problem instance.
	Instance = model.Instance
	// Task is a spatial task s = (c, l, e, r).
	Task = model.Task
	// Worker is a worker w = (c, l, maxT).
	Worker = model.Worker
	// Center is a distribution center c = (l, S, W).
	Center = model.Center
	// Solution is a platform-wide task assignment with its transfers.
	Solution = model.Solution
	// Route is one worker's delivery run.
	Route = model.Route
	// Transfer is one inter-center workforce dispatch.
	Transfer = model.Transfer
	// TaskID identifies a task.
	TaskID = model.TaskID
	// WorkerID identifies a worker.
	WorkerID = model.WorkerID
	// CenterID identifies a center.
	CenterID = model.CenterID
	// Method is a method combination such as Seq-BDC.
	Method = core.Method
	// Report is the outcome of one IMTAO run.
	Report = core.Report
	// Params configures the dataset generators.
	Params = workload.Params
	// Dataset selects a generator family (GM or SYN).
	Dataset = workload.Dataset
	// Point is a 2-D location.
	Point = geo.Point
	// Rect is an axis-aligned rectangle (service areas, bounds).
	Rect = geo.Rect
	// Utilization summarises workforce usage of a solution.
	Utilization = metrics.Utilization
	// TravelMetric is a pluggable travel-time model (see NewRoadNetwork).
	TravelMetric = model.TravelMetric
	// RoadNetwork is a grid road network usable as an Instance's Metric.
	RoadNetwork = roadnet.Network
	// TraceStep is one phase-2 game iteration in Report.Trace.
	TraceStep = collab.TraceStep
	// Observer receives structured telemetry events from a run (see
	// WithObserver). obs.Nop — the default — costs nothing.
	Observer = obs.Observer
	// Field is one key/value pair attached to an Observer event.
	Field = obs.Field
	// Tracer records hierarchical timing spans from a run (see WithTracer).
	Tracer = obs.Tracer
	// SpanID identifies one recorded span; 0 is "no parent".
	SpanID = obs.SpanID
	// FlightRecorder is a fixed-size ring of the most recent telemetry
	// events, dumpable after the fact (see NewFlightRecorder).
	FlightRecorder = obs.FlightRecorder
	// Quantile is a lock-free exact-rank latency recorder exported as a
	// Prometheus summary (see docs/OBSERVABILITY.md).
	Quantile = obs.Quantile
	// QuantileSnapshot is a point-in-time copy of a Quantile recorder.
	QuantileSnapshot = obs.QuantileSnapshot
	// RuntimeSampler periodically publishes Go runtime vitals (GC pauses,
	// heap, goroutines, scheduler latency) as imtao_runtime_* gauges and
	// runtime_sample telemetry events (see NewRuntimeSampler).
	RuntimeSampler = obs.RuntimeSampler
	// RuntimeVitals is one runtime health snapshot from a RuntimeSampler.
	RuntimeVitals = obs.RuntimeVitals
	// ProfileRing is a continuous profiler keeping a bounded on-disk ring of
	// periodic CPU and heap pprof captures (see NewProfileRing).
	ProfileRing = obs.ProfileRing
	// Ledger is one run's assignment-provenance record: the per-task decision
	// ledger captured by WithProvenance and returned on Report.Provenance
	// (see docs/PROVENANCE.md).
	Ledger = provenance.Ledger
	// Certificate is a machine-checkable equilibrium certificate of a run's
	// final solution (Ledger.Cert); Certificate.Verify re-validates it
	// offline without re-running the phase-2 game.
	Certificate = provenance.Certificate
)

// Dataset constants.
const (
	// SYN is the uniform synthetic dataset of the paper.
	SYN = workload.SYN
	// GM is the simulated gMission-like clustered dataset.
	GM = workload.GM
)

// Method presets matching the paper's evaluated combinations.
var (
	// SeqBDC is the paper's proposed method: sequential assignment plus
	// bi-directional game-theoretic collaboration.
	SeqBDC = Method{Assigner: core.Seq, Collab: core.BDC}
	// SeqRBDC randomizes recipient selection.
	SeqRBDC = Method{Assigner: core.Seq, Collab: core.RBDC}
	// SeqDC uses decomposed (leftover-only) collaboration.
	SeqDC = Method{Assigner: core.Seq, Collab: core.DC}
	// SeqWoC disables collaboration.
	SeqWoC = Method{Assigner: core.Seq, Collab: core.WoC}
	// OptBDC pairs the optimal per-center assigner with BDC.
	OptBDC = Method{Assigner: core.Opt, Collab: core.BDC}
	// OptRBDC pairs the optimal assigner with random recipients.
	OptRBDC = Method{Assigner: core.Opt, Collab: core.RBDC}
	// OptDC pairs the optimal assigner with decomposed collaboration.
	OptDC = Method{Assigner: core.Opt, Collab: core.DC}
	// OptWoC is the optimal assigner without collaboration.
	OptWoC = Method{Assigner: core.Opt, Collab: core.WoC}
)

// Methods returns all eight method presets in the paper's order.
func Methods() []Method { return core.Methods() }

// ParseMethod parses method names such as "Seq-BDC" (case-insensitive).
func ParseMethod(s string) (Method, error) { return core.ParseMethod(s) }

// DefaultParams returns the paper's Table I default parameters for a dataset.
func DefaultParams(d Dataset) Params { return workload.Defaults(d) }

// Generate builds an unpartitioned instance from generator parameters.
func Generate(p Params) (*Instance, error) { return workload.Generate(p) }

// Partition attaches every task and worker to its nearest center via a
// Voronoi diagram over center locations (paper Algorithm 1), returning a new
// instance.
func Partition(in *Instance) (*Instance, error) {
	out, _, err := core.Partition(in)
	return out, err
}

// RunOption customises Run.
type RunOption func(*core.Config)

// WithSeed sets the seed used by randomized methods (RBDC recipients).
func WithSeed(seed int64) RunOption {
	return func(c *core.Config) { c.Seed = seed }
}

// WithOptBudget bounds the per-center search time of the Opt assigner.
// Zero (the default) runs the exact search to completion.
func WithOptBudget(d time.Duration) RunOption {
	return func(c *core.Config) { c.OptBudget = d }
}

// WithParallelism bounds the worker goroutines of the IMTAO pipeline:
// phase-1 per-center assignment runs concurrently across centers, and
// phase-2 best-response trials run concurrently within each game iteration.
// The default, 0, uses
// GOMAXPROCS; 1 forces the legacy serial pipeline. The output is
// bit-identical at every setting — see DESIGN.md §8 for the determinism
// contract.
func WithParallelism(n int) RunOption {
	return func(c *core.Config) { c.Parallelism = n }
}

// WithShards routes the phase-2 collaboration game through the
// region-sharded engine (DESIGN.md §15–16): centers are partitioned into n
// geographic shards with seeded task-weighted k-means, best-response
// dynamics run concurrently per shard over disjoint home-shard worker
// pools, and a component-parallel exchange game settles the boundary
// workers and drives the merged state to a global Nash equilibrium. When
// the worker-overlap interference cut between shards is empty, the result
// is bit-identical to the unsharded engine; methods the sharded engine
// cannot prove safe for (RBDC, budgeted Opt) fall back to the ordinary
// game. WithShards(0) turns on auto-tuning: the engine probes a shard-count
// ladder against the instance's interference profile and picks the count
// with the smallest modeled critical path (the decision is recorded in
// Report.Shard.Auto). 1 — and not calling WithShards at all — keeps the
// single-game engine.
func WithShards(n int) RunOption {
	return func(c *core.Config) {
		if n == 0 {
			c.Shards = core.ShardAuto
		} else {
			c.Shards = n
		}
	}
}

// WithShardParallelism bounds the goroutines playing shard games
// concurrently under WithShards: 0 (the default) means GOMAXPROCS, 1 plays
// the shards serially. The output is bit-identical at every setting.
func WithShardParallelism(n int) RunOption {
	return func(c *core.Config) { c.ShardParallelism = n }
}

// WithObserver streams structured telemetry events from the run — pipeline
// phase spans (run_start, phase1, phase2, run_end), per-center phase-1
// summaries, and one game_iter event per phase-2 best-response iteration
// carrying the potential Φ and the full ratio vector ρ. The default observer
// is a no-op; event names and fields are catalogued in DESIGN.md §9.
func WithObserver(o Observer) RunOption {
	return func(c *core.Config) { c.Observer = o }
}

// WithTrace streams the run's telemetry events to w as JSON Lines, one
// object per event:
//
//	{"seq":7,"t_ms":1.532,"event":"game_iter","iter":1,"phi":17.25,...}
//
// It is WithObserver with the built-in JSONL encoder. Writes are serialized
// internally, so w need not be safe for concurrent use.
func WithTrace(w io.Writer) RunOption {
	return WithObserver(obs.NewJSONL(w))
}

// NewJSONLObserver returns the JSON Lines encoder WithTrace uses as a
// standalone Observer, for composing with others via MultiObserver.
func NewJSONLObserver(w io.Writer) Observer { return obs.NewJSONL(w) }

// NewLedger returns an empty provenance ledger for WithProvenance.
func NewLedger() *Ledger { return provenance.NewLedger() }

// WithProvenance attaches a decision ledger to the run: phase-1 routes and
// deadline-rejection scans, every phase-2 best-response iteration with its
// candidate trials, pruning and Δρ/ΔΦ evidence, shard and boundary-exchange
// structure, the final routes with per-task arrival times, and (for
// Sequential collaboration runs) an equilibrium certificate. The filled
// ledger is returned on Report.Provenance; stream it to a file with
// Ledger.WriteTo and query it with cmd/imtao-explain. A run without
// WithProvenance pays a single nil check per instrumented site — the hot
// paths stay zero-allocation (see docs/PROVENANCE.md).
func WithProvenance(l *Ledger) RunOption {
	return func(c *core.Config) { c.Prov = l }
}

// NewTracer builds a span recorder for WithTracer. maxSpans bounds the
// in-memory trace (≤ 0 selects the default, obs.DefaultTraceSpans); once
// full, further spans are counted as dropped rather than grown.
func NewTracer(maxSpans int) *Tracer { return obs.NewTracer(maxSpans) }

// WithTracer records the run as a tree of timing spans: the run itself,
// phase 1 and each per-center assignment, phase 2 with one span per game
// iteration and per evaluated trial, and every road-network shortest-path
// search. After the run, write the timeline with Tracer.WriteChromeTrace —
// the output opens in ui.perfetto.dev or chrome://tracing. A nil tracer
// (the default) costs nothing on any instrumented path.
func WithTracer(t *Tracer) RunOption {
	return func(c *core.Config) { c.Tracer = t }
}

// NewFlightRecorder builds an Observer that retains the last n telemetry
// events (≤ 0 selects the default, obs.DefaultFlightEvents) in a ring
// buffer; dump them with FlightRecorder.WriteTo when something goes wrong.
// Combine with another observer via MultiObserver.
func NewFlightRecorder(n int) *FlightRecorder { return obs.NewFlightRecorder(n) }

// MultiObserver fans each telemetry event out to every given observer, in
// order — e.g. a JSONL stream plus a FlightRecorder. Nil and no-op entries
// are dropped; with none left it returns the no-op observer.
func MultiObserver(observers ...Observer) Observer { return obs.Multi(observers...) }

// WriteMetrics writes a point-in-time snapshot of the process-wide metrics
// registry (run, assignment, game, worker-pool, and road-network counters)
// to w in Prometheus text exposition format.
func WriteMetrics(w io.Writer) error {
	obs.RecordEnvInfo(obs.Default)
	_, err := obs.Default.WriteTo(w)
	return err
}

// EnableTiming turns on the fine-grained latency histograms (road-network
// lock wait, trial-pool queue wait) that need a clock read on hot paths.
// They are off by default so a no-op-observed run stays at zero overhead.
func EnableTiming(on bool) { obs.EnableTiming(on) }

// NewRuntimeSampler builds a runtime-vitals sampler publishing on the
// process-wide metrics registry every interval (≤ 0 selects the default,
// obs.DefaultSampleInterval). o, when non-nil, additionally receives one
// runtime_sample event per tick — pass a FlightRecorder or JSONL observer to
// interleave vitals with pipeline telemetry. Call Start to begin sampling
// and Stop for a clean, goroutine-free shutdown.
func NewRuntimeSampler(interval time.Duration, o Observer) *RuntimeSampler {
	return obs.NewRuntimeSampler(interval, obs.Default, o)
}

// NewProfileRing builds a continuous profiler writing periodic CPU and heap
// pprof captures into dir, retaining the most recent keep of each kind
// (≤ 0 selects obs.DefaultProfileKeep). Start launches the periodic loop;
// DumpNow writes an out-of-cycle heap profile (e.g. on panic) that pruning
// never removes.
func NewProfileRing(dir string, interval time.Duration, keep int) (*ProfileRing, error) {
	return obs.NewProfileRing(dir, interval, 0, keep, obs.Default)
}

// Phi computes the exact potential Φ = Σρ_i of the phase-2 transfer game
// over a ratio vector. Along the accepted moves of Algorithm 3 it is
// monotone non-decreasing, which is what makes the best-response dynamics
// converge; Report.Trace records it per iteration.
func Phi(rhos []float64) float64 { return metrics.Phi(rhos) }

// Run executes the IMTAO pipeline on a partitioned instance with the given
// method.
func Run(in *Instance, m Method, opts ...RunOption) (*Report, error) {
	cfg := core.Config{Method: m}
	for _, o := range opts {
		o(&cfg)
	}
	return core.Run(in, cfg)
}

// NewRoadNetwork builds a grid road network over the instance bounds that
// can be installed as Instance.Metric, replacing straight-line travel with
// street-constrained shortest paths (optionally congested via its
// SetCongestion methods).
func NewRoadNetwork(bounds geo.Rect, nx, ny int, speed float64) (*RoadNetwork, error) {
	return roadnet.New(bounds, nx, ny, speed)
}

// ComputeUtilization derives workforce statistics (active workers, route
// hours, capacity usage) from a solution.
func ComputeUtilization(in *Instance, s *Solution) Utilization {
	return metrics.ComputeUtilization(in, s)
}

// Unfairness computes the paper's collaboration unfairness U_ρ (Eq. 3) over
// a ratio vector; Gini and Jain are alternative fairness indices.
func Unfairness(rhos []float64) float64 { return metrics.Unfairness(rhos) }

// Gini computes the Gini coefficient of the values.
func Gini(values []float64) float64 { return metrics.Gini(values) }

// Jain computes Jain's fairness index of the values.
func Jain(values []float64) float64 { return metrics.Jain(values) }

// Solve is the one-call convenience: generate a dataset, partition it, and
// run the method.
func Solve(p Params, m Method, opts ...RunOption) (*Report, error) {
	raw, err := workload.Generate(p)
	if err != nil {
		return nil, err
	}
	in, _, err := core.Partition(raw)
	if err != nil {
		return nil, err
	}
	return Run(in, m, opts...)
}
