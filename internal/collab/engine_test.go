package collab

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"

	"imtao/internal/assign"
	"imtao/internal/model"
)

// fingerprintSolution hashes the full assignment output — every route and
// every transfer — mirroring the bench harness's fingerprint, so equality
// here is equality of the whole solution.
func fingerprintSolution(sol *model.Solution) uint64 {
	h := fnv.New64a()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for ci := range sol.PerCenter {
		for _, r := range sol.PerCenter[ci].Routes {
			word(uint64(ci))
			word(uint64(r.Worker))
			for _, tid := range r.Tasks {
				word(uint64(tid))
			}
			word(^uint64(0))
		}
	}
	for _, tr := range sol.Transfers {
		word(uint64(tr.Src))
		word(uint64(tr.Dst))
		word(uint64(tr.Worker))
	}
	return h.Sum64()
}

// stripEngineDiagnostics zeroes the TraceStep fields outside the cross-engine
// equivalence contract: the wall clock and the trial/prune/resume counters
// (the optimized engine does strictly less work).
func stripEngineDiagnostics(trace []TraceStep) []TraceStep {
	out := append([]TraceStep(nil), trace...)
	for i := range out {
		out[i].Duration = 0
		out[i].Trials = 0
		out[i].Pruned = 0
		out[i].Resumed = 0
	}
	return out
}

// optAssigner is assign.Optimal without a budget — deterministic, so the
// engines must agree bit-for-bit on it too.
func optAssigner(in *model.Instance, c *model.Center, ws []model.WorkerID, ts []model.TaskID) assign.Result {
	return assign.Optimal(in, c, ws, ts)
}

// engineCases enumerates the paper's method grid for both per-center
// assigners: BDC/DC/RBDC × {Sequential, Optimal}, plus the recipient- and
// candidate-policy ablations under Sequential. Optimal runs with PruneOn
// (exact for the unbudgeted enumeration, see PruneMode docs). opt marks the
// cases whose phase 1 must also run Optimal — pruning assumes the initial
// state is a fixed point of the game's own assigner, as core.Run guarantees
// by using one assigner for both phases.
func engineCases() []struct {
	name string
	opt  bool
	cfg  Config
} {
	return []struct {
		name string
		opt  bool
		cfg  Config
	}{
		{"Seq-BDC", false, Config{Scope: FullReassign, Assigner: assign.Sequential}},
		{"Seq-DC", false, Config{Scope: LeftoverOnly, Assigner: assign.Sequential}},
		{"Seq-RBDC", false, Config{Recipient: RandomRecipient, Assigner: assign.Sequential}},
		{"Seq-MaxLeftover", false, Config{Recipient: MaxLeftover, Assigner: assign.Sequential}},
		{"Seq-NearestWorker", false, Config{Candidate: NearestWorker, Assigner: assign.Sequential}},
		{"Seq-BDC-par", false, Config{Scope: FullReassign, Assigner: assign.Sequential, Parallelism: 4}},
		{"Opt-BDC", true, Config{Scope: FullReassign, Assigner: optAssigner, Prune: PruneOn}},
		{"Opt-DC", true, Config{Scope: LeftoverOnly, Assigner: optAssigner, Prune: PruneOn}},
		{"Opt-RBDC", true, Config{Recipient: RandomRecipient, Assigner: optAssigner, Prune: PruneOn}},
		{"Opt-BDC-noprune", true, Config{Scope: FullReassign, Assigner: optAssigner}},
	}
}

// TestRunMatchesReferenceAcrossMethods is the tentpole equivalence test: the
// optimized engine must be bit-identical to the frozen pre-engine loop —
// same routes, same transfers, same trace (diagnostics aside), same
// fingerprint — across every method × assigner combination.
func TestRunMatchesReferenceAcrossMethods(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 8; trial++ {
		// Optimal's VTDS enumeration is exponential, so its grid runs on a
		// small instance; the Sequential grid gets a larger one.
		inSeq := randomInstance(rng, 2+rng.Intn(5), 6+rng.Intn(24), 12+rng.Intn(60))
		inOpt := randomInstance(rng, 2+rng.Intn(2), 4+rng.Intn(5), 8+rng.Intn(8))
		p1Seq := phase1(inSeq)
		var p1Opt []assign.Result
		for ci := range inOpt.Centers {
			c := inOpt.Center(model.CenterID(ci))
			p1Opt = append(p1Opt, assign.Optimal(inOpt, c, c.Workers, c.Tasks))
		}
		for _, tc := range engineCases() {
			in, p1 := inSeq, p1Seq
			if tc.opt {
				in, p1 = inOpt, p1Opt
			}
			cfg := tc.cfg
			ref := cfg
			if cfg.Recipient == RandomRecipient {
				// Each engine consumes the same stream from its own RNG.
				cfg.Rng = rand.New(rand.NewSource(int64(trial)))
				ref.Rng = rand.New(rand.NewSource(int64(trial)))
			}
			got := Run(in, p1, cfg)
			want := RunReference(in, p1, ref)
			if !reflect.DeepEqual(got.Solution, want.Solution) {
				t.Fatalf("trial %d %s: solutions differ", trial, tc.name)
			}
			if gf, wf := fingerprintSolution(got.Solution), fingerprintSolution(want.Solution); gf != wf {
				t.Fatalf("trial %d %s: fingerprints differ: %x vs %x", trial, tc.name, gf, wf)
			}
			if got.Iterations != want.Iterations {
				t.Fatalf("trial %d %s: iterations %d vs %d", trial, tc.name, got.Iterations, want.Iterations)
			}
			gt := stripEngineDiagnostics(got.Trace)
			wt := stripEngineDiagnostics(want.Trace)
			if !reflect.DeepEqual(gt, wt) {
				for i := range gt {
					if i >= len(wt) || !reflect.DeepEqual(gt[i], wt[i]) {
						t.Fatalf("trial %d %s: trace diverges at step %d:\n got  %+v\n want %+v",
							trial, tc.name, i, gt[i], wt[i])
					}
				}
				t.Fatalf("trial %d %s: trace lengths differ: %d vs %d", trial, tc.name, len(gt), len(wt))
			}
		}
	}
}

// TestRunMatchesReferenceOnFig1 pins the equivalence on the worked example.
func TestRunMatchesReferenceOnFig1(t *testing.T) {
	in := paperFig1()
	p1 := phase1(in)
	got := Run(in, p1, seqConfig())
	want := RunReference(in, p1, seqConfig())
	if !reflect.DeepEqual(got.Solution, want.Solution) {
		t.Fatal("solutions differ on Fig. 1")
	}
	if !reflect.DeepEqual(stripEngineDiagnostics(got.Trace), stripEngineDiagnostics(want.Trace)) {
		t.Fatal("traces differ on Fig. 1")
	}
}

// TestRunEngineCountersFire asserts the optimizations actually engage on a
// pruning-friendly instance: some candidates pruned, every evaluated trial
// resumed, and the w/o-C baseline untouched by comparison.
func TestRunEngineCountersFire(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	var pruned, resumed, trials int
	for trial := 0; trial < 10; trial++ {
		in := randomInstance(rng, 3+rng.Intn(4), 10+rng.Intn(20), 20+rng.Intn(50))
		p1 := phase1(in)
		res := Run(in, p1, seqConfig())
		for _, step := range res.Trace {
			pruned += step.Pruned
			resumed += step.Resumed
			trials += step.Trials
		}
	}
	if pruned == 0 {
		t.Fatal("admissibility pruning never fired across 10 random instances")
	}
	if trials == 0 {
		t.Fatal("no trials evaluated — degenerate test instances")
	}
	if resumed != trials {
		t.Fatalf("Sequential engine evaluated %d trials but resumed only %d", trials, resumed)
	}
}

// TestPrunedCandidatesNeverImprove is the pruning-soundness property test:
// via the test hook, every pruned candidate's FULL trial is replayed and must
// yield exactly the recipient's current assigned count — i.e. pruning only
// ever drops candidates whose best response is a no-op. Covered for both the
// full-reassign (BDC) and leftover-only (DC) scopes.
func TestPrunedCandidatesNeverImprove(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, scope := range []Scope{FullReassign, LeftoverOnly} {
		checked := 0
		for trial := 0; trial < 12; trial++ {
			in := randomInstance(rng, 2+rng.Intn(4), 8+rng.Intn(16), 16+rng.Intn(40))
			p1 := phase1(in)
			cfg := seqConfig()
			cfg.Scope = scope
			cfg.prunedHook = func(ci model.CenterID, w model.WorkerID,
				baseWS []model.WorkerID, leftTasks []model.TaskID, assigned int) {
				checked++
				center := in.Center(ci)
				var full assign.Result
				if scope == LeftoverOnly {
					full = assign.Sequential(in, center, []model.WorkerID{w}, leftTasks)
					if got := full.AssignedCount(); got != 0 {
						t.Fatalf("scope %v: pruned DC candidate %d served %d leftover tasks", scope, w, got)
					}
					return
				}
				ws := append(append([]model.WorkerID(nil), baseWS...), w)
				full = assign.Sequential(in, center, ws, center.Tasks)
				if got := full.AssignedCount(); got != assigned {
					t.Fatalf("scope %v: pruned candidate %d changed assigned count %d → %d",
						scope, w, assigned, got)
				}
			}
			Run(in, p1, cfg)
		}
		if checked == 0 {
			t.Fatalf("scope %v: hook never saw a pruned candidate", scope)
		}
		t.Logf("scope %v: verified %d pruned candidates", scope, checked)
	}
}
