package assign

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"imtao/internal/geo"
	"imtao/internal/model"
	"imtao/internal/workload"
)

// benchScene builds an instance with n tasks scattered uniformly over the
// bounds, matching the geometry the grid index sees in a real run.
func benchScene(n int) (*model.Instance, []model.TaskID, []geo.Point) {
	rng := rand.New(rand.NewSource(7))
	locs := make([]geo.Point, n)
	for i := range locs {
		locs[i] = geo.Pt(rng.Float64()*2000-1000, rng.Float64()*2000-1000)
	}
	in := centerScene(nil, locs, 1e9, n)
	_, ts := allIDs(in)
	queries := make([]geo.Point, 256)
	for i := range queries {
		queries[i] = geo.Pt(rng.Float64()*2000-1000, rng.Float64()*2000-1000)
	}
	return in, ts, queries
}

// anyPoint is a query origin that is neither the center nor a task, so the
// grid answers every query of the random-point benchmarks.
const anyPoint model.TaskID = -2

func BenchmarkGridPoolNearest(b *testing.B) {
	in, ts, queries := benchScene(4096)
	p := newGridPool(in, in.Center(0), ts)
	defer p.release()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.nearest(queries[i%len(queries)], anyPoint)
	}
}

// BenchmarkGridPoolNearestRemove measures the phase-1 inner loop shape: a
// nearest query followed by removing the returned task, draining and
// rebuilding the pool as it empties.
func BenchmarkGridPoolNearestRemove(b *testing.B) {
	in, ts, queries := benchScene(4096)
	p := newGridPool(in, in.Center(0), ts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, ok, _ := p.nearest(queries[i%len(queries)], anyPoint)
		if !ok {
			b.StopTimer()
			p.release()
			p = newGridPool(in, in.Center(0), ts)
			b.StartTimer()
			continue
		}
		p.remove(id)
	}
	b.StopTimer()
	p.release()
}

func BenchmarkLinearPoolNearest(b *testing.B) {
	in, ts, queries := benchScene(4096)
	p := newLinearPool(in, ts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.nearest(queries[i%len(queries)], anyPoint)
	}
}

// BenchmarkLinearPoolRemove exercises the O(1) swap-delete against a drained
// and rebuilt pool.
func BenchmarkLinearPoolRemove(b *testing.B) {
	in, ts, _ := benchScene(4096)
	p := newLinearPool(in, ts)
	order := rand.New(rand.NewSource(11)).Perm(len(ts))
	j := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if j == len(order) {
			b.StopTimer()
			p = newLinearPool(in, ts)
			j = 0
			b.StartTimer()
		}
		p.remove(ts[order[j]])
		j++
	}
}

// trialScene cuts one center out of a 20k-task SYN scene partitioned to
// nearest centers — the shape of a benchmark workload's center, about 200
// tasks and 50 home workers with MaxT 4 — and returns its home workers and
// its 20 nearest admissible foreign workers, the candidates a pruned game
// would try.
func trialScene(tb testing.TB) (*model.Instance, *model.Center, []model.WorkerID, []model.WorkerID) {
	in, err := workload.Generate(workload.ScaleParams(workload.SYN, 20_000))
	if err != nil {
		tb.Fatal(err)
	}
	site := func(p geo.Point) model.CenterID {
		best := model.CenterID(0)
		for ci := range in.Centers {
			if p.Dist2(in.Centers[ci].Loc) < p.Dist2(in.Centers[best].Loc) {
				best = model.CenterID(ci)
			}
		}
		return best
	}
	for i := range in.Tasks {
		c := site(in.Tasks[i].Loc)
		in.Tasks[i].Center = c
		in.Centers[c].Tasks = append(in.Centers[c].Tasks, model.TaskID(i))
	}
	for i := range in.Workers {
		c := site(in.Workers[i].Loc)
		in.Workers[i].Home = c
		in.Centers[c].Workers = append(in.Centers[c].Workers, model.WorkerID(i))
	}
	c := &in.Centers[0]
	for ci := range in.Centers {
		if abs(len(in.Centers[ci].Tasks)-200) < abs(len(c.Tasks)-200) {
			c = &in.Centers[ci]
		}
	}
	slack := AdmissionSlack(in, c, c.Tasks)
	var cands []model.WorkerID
	for i := range in.Workers {
		if w := model.WorkerID(i); in.Workers[i].Home != c.ID && WorkerAdmissible(in, c, w, slack) {
			cands = append(cands, w)
		}
	}
	slices.SortFunc(cands, func(a, b model.WorkerID) int {
		return cmp.Compare(in.Workers[a].Loc.Dist2(c.Loc), in.Workers[b].Loc.Dist2(c.Loc))
	})
	return in, c, c.Workers, cands[:min(20, len(cands))]
}

func abs(x int) int { return max(x, -x) }

// BenchmarkTrialRunner measures one best-response trial on a
// workload-shaped center: the unit of phase-2 work that the nearest-task
// rows speed up. It reports the pool queries per trial and the share the
// grid answered.
func BenchmarkTrialRunner(b *testing.B) {
	in, c, base, cands := trialScene(b)
	baseline := Sequential(in, c, base, c.Tasks)
	tb, ok := NewTrialBase(in, c, base, baseline.Routes, baseline.LeftTasks)
	if !ok {
		b.Fatal("baseline does not line up with the serve order")
	}
	defer tb.Release()
	r := tb.NewRunner()
	defer r.Release()
	var st Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := r.Trial(cands[i%len(cands)])
		st.TasksScanned += res.Stats.TasksScanned
		st.GridFallbacks += res.Stats.GridFallbacks
	}
	b.ReportMetric(float64(st.TasksScanned)/float64(b.N), "queries/trial")
	if st.TasksScanned > 0 {
		b.ReportMetric(float64(st.GridFallbacks)/float64(st.TasksScanned), "fallback-share")
	}
}
