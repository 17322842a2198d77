package main

import (
	"fmt"
	"runtime"
	"time"

	"imtao/internal/assign"
	"imtao/internal/collab"
	"imtao/internal/core"
	"imtao/internal/geo"
	"imtao/internal/model"
	"imtao/internal/provenance"
	"imtao/internal/roadnet"
	"imtao/internal/routing"
)

// run is one benchmark invocation: a workload, its generated rounds and the
// set-up state shared by their solves.
type run struct {
	spec   spec
	seed   int64
	budget time.Duration
	rounds []*model.Instance
	cfg    core.Config
	// net is the road network of the most recent solve.
	net *roadnet.Network
	// setupS holds one wall time per set-up sample, in seconds.
	setupS []float64
	// setupDijkstraRuns counts the searches set-up ran on the network the
	// timed solves share.
	setupDijkstraRuns int64
	// fingerprints holds each round's solution fingerprint from its first
	// solve, and solves counts each round's solves so far.
	fingerprints []uint64
	solves       []int
	// attempted counts the run's checked solves, failed those that failed a
	// correctness check, and failures says why.
	attempted, failed int
	failures          []string
}

func newRun(s spec, seed int64, budget time.Duration) (*run, error) {
	rounds, err := s.generate(seed)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", s.name, err)
	}
	return &run{
		spec: s, seed: seed, budget: budget, rounds: rounds, cfg: config(seed),
		fingerprints: make([]uint64, len(rounds)), solves: make([]int, len(rounds)),
	}, nil
}

// solved is one pipeline solve: the partitioned instance it ran on and the
// report.
type solved struct {
	in  *model.Instance
	rep *core.Report
}

// solve is the unit every timed sample measures: core.Partition followed by
// core.Run, as a caller of the library solves one dispatch round.
func solve(raw *model.Instance, cfg core.Config) (solved, error) {
	in, _, err := core.Partition(raw)
	if err != nil {
		return solved{}, fmt.Errorf("partition: %w", err)
	}
	rep, err := core.Run(in, cfg)
	if err != nil {
		return solved{}, fmt.Errorf("run: %w", err)
	}
	return solved{in: in, rep: rep}, nil
}

// attachNetwork builds a new road network and puts it behind every round.
func (r *run) attachNetwork() error {
	for _, in := range r.rounds {
		in.Metric = nil
	}
	r.net = nil
	net, err := newNetwork(r.rounds[0])
	if err != nil {
		return fmt.Errorf("build network: %w", err)
	}
	r.net = net
	for _, in := range r.rounds {
		in.Metric = net
	}
	return nil
}

func (r *run) fail(format string, args ...any) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// check applies the per-solve correctness checks to a solve of round i:
// every route is feasible (routing.SolutionFeasible runs
// Solution.CheckConsistency first), the report agrees with its solution, and
// the solution is bit-identical to the round's first one.
func (r *run) check(i int, s solved) {
	sol := s.rep.Solution
	fp := provenance.SolutionFingerprint(sol)
	r.attempted++
	r.solves[i]++
	if r.solves[i] == 1 {
		r.fingerprints[i] = fp
	}
	if err := routing.SolutionFeasible(s.in, sol); err != nil {
		r.fail("round %d: %v", i, err)
		return
	}
	if got := sol.AssignedCount(); got != s.rep.Assigned {
		r.fail("round %d: report says %d assigned, solution has %d", i, s.rep.Assigned, got)
		return
	}
	if fp != r.fingerprints[i] {
		r.fail("round %d: fingerprint %016x differs from the first solve's %016x", i, fp, r.fingerprints[i])
	}
}

// setUp does the program's work before the first timed solve. A warm
// workload sets up setupRepeats times, each time building the shared network
// and filling it: every node's distance table, then the city's center tables
// pinned, as the first core.Run on the network would pin them. Each build and
// fill is one set-up sample, and the last network serves the timed solves,
// which then search nothing. Cold workloads set up before every solve instead
// (measure).
func (r *run) setUp() error {
	if r.spec.freshNet {
		return nil
	}
	for range setupRepeats {
		runtime.GC()
		t0 := time.Now()
		if err := r.attachNetwork(); err != nil {
			return err
		}
		fill(r.net, r.rounds[0].Centers)
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
	}
	r.setupDijkstraRuns = r.net.Stats().DijkstraRuns
	return nil
}

// setupRepeats is the number of set-up samples a warm run takes.
const setupRepeats = 5

// fill computes every distance table a solve on net can read. A query
// between two unpinned nodes reads the table of the smaller id, so querying
// each node against the last one, before anything is pinned, caches the
// table of every node but the last, which no query reads. The center tables
// are then pinned; pinned tables serve every query that touches them.
func fill(net *roadnet.Network, centers []model.Center) {
	last := int32(net.Nodes() - 1)
	for src := range last {
		net.TravelTimeNodes(src, 0, last, 0)
	}
	locs := make([]geo.Point, len(centers))
	for i := range centers {
		locs[i] = centers[i].Loc
	}
	net.PrecomputeSources(locs)
}

// timed is the outcome of the untraced measurement loop.
type timed struct {
	solveS  []float64 // wall time per solve
	allocMB []float64 // bytes allocated per solve, in MB
	// firstSolveS holds the wall times of round 0's solves.
	firstSolveS []float64
	// reports holds each round's most recent report.
	reports    []*core.Report
	liveHeapMB float64
}

// minPasses is the number of whole passes over the rounds a run makes before
// the budget can end it, so every round's fingerprint is compared at least
// once.
const minPasses = 2

// measure runs the closed loop: one client, each solve starting after the
// previous one and its checks end. It solves the rounds in order, pass after
// pass, until the budget is spent and minPasses passes are done. Each solve
// starts on a collected heap, so no solve pays for the garbage of the one
// before it. On a cold workload each solve also gets a fresh network, built
// untimed and recorded as a set-up sample. Tracing is off.
func (r *run) measure() (*timed, error) {
	t := &timed{reports: make([]*core.Report, len(r.rounds))}
	var ms runtime.MemStats
	start := time.Now()
loop:
	for pass := 0; ; pass++ {
		for i, in := range r.rounds {
			if pass >= minPasses && time.Since(start) >= r.budget {
				break loop
			}
			if r.spec.freshNet {
				t0 := time.Now()
				if err := r.attachNetwork(); err != nil {
					return nil, err
				}
				r.setupS = append(r.setupS, time.Since(t0).Seconds())
			}
			runtime.GC()
			runtime.ReadMemStats(&ms)
			alloc0 := ms.TotalAlloc
			t0 := time.Now()
			s, err := solve(in, r.cfg)
			wall := time.Since(t0).Seconds()
			if err != nil {
				return nil, err
			}
			runtime.ReadMemStats(&ms)
			t.solveS = append(t.solveS, wall)
			t.allocMB = append(t.allocMB, float64(ms.TotalAlloc-alloc0)/1e6)
			if i == 0 {
				t.firstSolveS = append(t.firstSolveS, wall)
			}
			r.check(i, s)
			t.reports[i] = s.rep
			// The equilibrium check runs once per run, outside the timed
			// window, on the last round's first solve: a fixed solve, so the
			// verdict does not depend on how many solves the budget allowed.
			if pass == 0 && i == len(r.rounds)-1 {
				if err := collab.VerifyEquilibrium(s.in, s.rep.Solution, assign.Sequential); err != nil {
					r.fail("round %d: not an equilibrium: %v", i, err)
				}
			}
		}
	}
	// Two cycles: the first moves sync.Pool contents to the victim cache,
	// the second frees them, so only what the run still holds stays.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	t.liveHeapMB = float64(ms.HeapAlloc) / 1e6
	runtime.KeepAlive(r.net)
	return t, nil
}
