package collab

import (
	"math/rand"
	"reflect"
	"testing"

	"imtao/internal/assign"
	"imtao/internal/model"
)

// seededInstance builds a random multi-center instance via the shared
// collab_test helper, from a bare seed.
func seededInstance(seed int64, nc, nw, nt int) *model.Instance {
	return randomInstance(rand.New(rand.NewSource(seed)), nc, nw, nt)
}

// stripDurations zeroes the one TraceStep field outside the determinism
// contract (per-iteration wall clock) so traces can be compared bit-for-bit.
func stripDurations(trace []TraceStep) []TraceStep {
	out := append([]TraceStep(nil), trace...)
	for i := range out {
		out[i].Duration = 0
	}
	return out
}

// TestRunParallelismDeterminism checks that every recipient/candidate/scope
// combination produces bit-identical results at Parallelism 1 and 8,
// including the full iteration trace.
func TestRunParallelismDeterminism(t *testing.T) {
	in := seededInstance(7, 6, 40, 160)
	p1 := phase1(in)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"BDC", Config{Scope: FullReassign, Assigner: assign.Sequential}},
		{"DC", Config{Scope: LeftoverOnly, Assigner: assign.Sequential}},
		{"MaxLeftover", Config{Recipient: MaxLeftover, Assigner: assign.Sequential}},
		{"NearestWorker", Config{Candidate: NearestWorker, Assigner: assign.Sequential}},
		{"RBDC", Config{Recipient: RandomRecipient, Assigner: assign.Sequential}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serialCfg, parCfg := tc.cfg, tc.cfg
			serialCfg.Parallelism = 1
			parCfg.Parallelism = 8
			if tc.cfg.Recipient == RandomRecipient {
				serialCfg.Rng = rand.New(rand.NewSource(3))
				parCfg.Rng = rand.New(rand.NewSource(3))
			}
			serial := Run(in, p1, serialCfg)
			parallel := Run(in, p1, parCfg)
			if serial.Iterations != parallel.Iterations {
				t.Fatalf("iterations: serial %d, parallel %d", serial.Iterations, parallel.Iterations)
			}
			if !reflect.DeepEqual(stripDurations(serial.Trace), stripDurations(parallel.Trace)) {
				t.Fatalf("traces differ")
			}
			if !reflect.DeepEqual(serial.Solution.Transfers, parallel.Solution.Transfers) {
				t.Fatalf("transfers differ:\nserial   %v\nparallel %v",
					serial.Solution.Transfers, parallel.Solution.Transfers)
			}
			if !reflect.DeepEqual(serial.Solution.PerCenter, parallel.Solution.PerCenter) {
				t.Fatalf("per-center routes differ")
			}
		})
	}
}

// TestEvalTrialsSlots checks the fixed-slot contract directly: results land
// at their candidate's index regardless of parallelism.
func TestEvalTrialsSlots(t *testing.T) {
	in := seededInstance(3, 4, 24, 96)
	center := in.Center(0)
	var cands []model.WorkerID
	for _, w := range in.Workers {
		cands = append(cands, w.ID)
	}
	base := center.Workers
	for _, par := range []int{1, 2, 8} {
		g := &Game{in: in, cfg: Config{Assigner: assign.Sequential, Parallelism: par}}
		got := g.evalTrials(center, cands, base, nil, nil, 0)
		if len(got) != len(cands) {
			t.Fatalf("par=%d: %d results for %d candidates", par, len(got), len(cands))
		}
		for i, w := range cands {
			ws := append(append([]model.WorkerID(nil), base...), w)
			want := assign.Sequential(in, center, ws, center.Tasks)
			if !reflect.DeepEqual(got[i], want) {
				t.Fatalf("par=%d: slot %d (worker %d) mismatch", par, i, w)
			}
		}
	}
}
