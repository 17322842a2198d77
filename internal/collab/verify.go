package collab

import (
	"fmt"

	"imtao/internal/assign"
	"imtao/internal/metrics"
	"imtao/internal/model"
)

// VerifyEquilibrium checks that a collaboration outcome is a fixed point of
// the best-response dynamics of Algorithm 3: for every center whose ratio is
// below one, no single additional available worker would strictly raise its
// assignment ratio under the given assigner. It returns nil at equilibrium
// and a descriptive error naming the first improving deviation otherwise.
//
// The available pool is reconstructed from the solution: every worker that
// appears in no route is available (from its home center).
//
// With a nil or assign.Sequential assigner the verifier uses the same exact
// accelerations as Run: candidates outside a center's admission slack are
// skipped (their deviation provably cannot improve ρ), and the rest are
// evaluated by prefix-resume against one baseline run per center instead of
// a full re-assignment each. The verdict is identical either way.
func VerifyEquilibrium(in *model.Instance, sol *model.Solution, assigner Assigner) error {
	seq := isSequentialAssigner(assigner)
	if assigner == nil {
		assigner = assign.Sequential
	}
	in.PrepareMetric()
	used := make(map[model.WorkerID]bool)
	borrowedBy := make(map[model.CenterID][]model.WorkerID)
	for ci := range sol.PerCenter {
		for _, r := range sol.PerCenter[ci].Routes {
			used[r.Worker] = true
		}
	}
	for _, tr := range sol.Transfers {
		borrowedBy[tr.Dst] = append(borrowedBy[tr.Dst], tr.Worker)
	}
	var pool []model.WorkerID
	for _, w := range in.Workers {
		if !used[w.ID] && !isBorrowed(sol.Transfers, w.ID) {
			pool = append(pool, w.ID)
		}
	}

	for ci := range in.Centers {
		center := in.Center(model.CenterID(ci))
		assigned := sol.PerCenter[ci].AssignedCount()
		rho := metrics.Ratio(assigned, len(center.Tasks))
		if rho >= 1 {
			continue
		}
		// The center's current worker set: own workers not lent out, plus
		// its borrowed workers.
		lent := make(map[model.WorkerID]bool)
		for _, tr := range sol.Transfers {
			if tr.Src == model.CenterID(ci) {
				lent[tr.Worker] = true
			}
		}
		var workers []model.WorkerID
		for _, w := range center.Workers {
			if !lent[w] {
				workers = append(workers, w)
			}
		}
		workers = append(workers, borrowedBy[model.CenterID(ci)]...)

		// Sequential-only accelerations: the admission slack prunes
		// candidates that cannot take any first task, and the remaining
		// deviations resume from one baseline run instead of re-running the
		// whole worker set each (both exact — DESIGN.md §11).
		slack := 0.0
		var runner *assign.TrialRunner
		if seq {
			slack = assign.AdmissionSlack(in, center, center.Tasks)
		}

		for _, cand := range pool {
			if in.Worker(cand).Home == model.CenterID(ci) {
				continue
			}
			if seq && !assign.WorkerAdmissible(in, center, cand, slack) {
				continue
			}
			if seq && runner == nil {
				baseline := assigner(in, center, workers, center.Tasks)
				if base, ok := assign.NewTrialBase(in, center, workers, baseline.Routes, baseline.LeftTasks); ok {
					runner = base.NewRunner()
					defer runner.Release()
				}
			}
			var trial assign.Result
			if runner != nil {
				trial = runner.Trial(cand)
			} else {
				trial = assigner(in, center, append(append([]model.WorkerID(nil), workers...), cand), center.Tasks)
			}
			newRho := metrics.Ratio(trial.AssignedCount(), len(center.Tasks))
			if newRho > rho+rhoEps {
				return fmt.Errorf(
					"collab: center %d can improve ρ %.4f → %.4f by borrowing worker %d — not an equilibrium",
					ci, rho, newRho, cand)
			}
		}
	}
	return nil
}

func isBorrowed(transfers []model.Transfer, w model.WorkerID) bool {
	for _, tr := range transfers {
		if tr.Worker == w {
			return true
		}
	}
	return false
}
