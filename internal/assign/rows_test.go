package assign

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"imtao/internal/geo"
	"imtao/internal/index"
	"imtao/internal/model"
)

// rowScene builds a two-center instance whose task sets interleave in space,
// so a task's nearest neighbours overall are often the other center's. It
// has the corner cases of the row lookup: duplicate task locations (ID
// ties, including across centers), tasks outside in.Bounds, and a task of
// each center standing on the center. The workers all belong to center 0.
func rowScene(rng *rand.Rand, nTasks, nWorkers int) *model.Instance {
	in := &model.Instance{
		Speed:  1 + rng.Float64()*3,
		Bounds: geo.NewRect(geo.Pt(-50, -50), geo.Pt(50, 50)),
		Centers: []model.Center{
			{ID: 0, Loc: geo.Pt(rng.Float64()*20-10, rng.Float64()*20-10)},
			{ID: 1, Loc: geo.Pt(rng.Float64()*20-10, rng.Float64()*20-10)},
		},
	}
	var locs []geo.Point
	for i := 0; i < nTasks; i++ {
		var p geo.Point
		switch {
		case i < 2:
			p = in.Centers[i].Loc
		case len(locs) > 0 && rng.Intn(5) == 0:
			p = locs[rng.Intn(len(locs))]
		case rng.Intn(8) == 0:
			p = geo.Pt(rng.Float64()*300-150, rng.Float64()*300-150)
		default:
			p = geo.Pt(float64(rng.Intn(60)-30), float64(rng.Intn(60)-30))
		}
		locs = append(locs, p)
		c := model.CenterID(i % 2)
		if i >= 2 && rng.Intn(3) == 0 {
			c = 1 - c
		}
		id := model.TaskID(i)
		in.Tasks = append(in.Tasks, model.Task{ID: id, Center: c, Loc: p,
			Expiry: 40 + rng.Float64()*120, Reward: 1})
		in.Centers[c].Tasks = append(in.Centers[c].Tasks, id)
	}
	for i := 0; i < nWorkers; i++ {
		id := model.WorkerID(i)
		in.Workers = append(in.Workers, model.Worker{ID: id, Home: 0,
			Loc: geo.Pt(rng.Float64()*80-40, rng.Float64()*80-40), MaxT: 1 + rng.Intn(5)})
		in.Centers[0].Workers = append(in.Centers[0].Workers, id)
	}
	return in
}

// linearNearest is the reference answer: index.LinearNearest over the
// pool's live items.
func linearNearest(p *gridPool, q geo.Point) (model.TaskID, bool) {
	it, ok := index.LinearNearest(p.g.Items(), q, nil)
	return model.TaskID(it.ID), ok
}

// TestRowLookupMatchesLinearNearest drives a trial runner's pool through
// random remove / mark / rewind sequences and checks every center-origin
// and task-origin query against a linear scan of the live set.
func TestRowLookupMatchesLinearNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var hits, fallbacks int
	for scene := 0; scene < 60; scene++ {
		in := rowScene(rng, 4+rng.Intn(60), 0)
		for ci := range in.Centers {
			c := in.Center(model.CenterID(ci))
			b, ok := NewTrialBase(in, c, nil, nil, c.Tasks)
			if !ok {
				t.Fatal("empty baseline rejected")
			}
			if !b.rowsOK {
				t.Fatalf("scene %d center %d: rows do not cover the center's own tasks", scene, ci)
			}
			r := b.NewRunner()
			p := r.pool
			p.mark()
			var gone []model.TaskID
			for op := 0; op < 300; op++ {
				switch k := rng.Intn(10); {
				case k < 4 && p.len() > 0:
					live := p.remaining()
					id := live[rng.Intn(len(live))]
					p.remove(id)
					gone = append(gone, id)
				case k == 4:
					p.g.Rewind()
					p.mark()
					gone = gone[:0]
				default:
					// From the center, a consumed task (as in Algorithm 2),
					// or any task of the center, live or not.
					from, q := fromCenter, c.Loc
					switch {
					case k == 9:
						from = c.Tasks[rng.Intn(len(c.Tasks))]
						q = in.Task(from).Loc
					case len(gone) > 0 && k%2 == 0:
						from = gone[rng.Intn(len(gone))]
						q = in.Task(from).Loc
					}
					got, gotOK, via := p.nearest(q, from)
					want, wantOK := linearNearest(p, q)
					if gotOK != wantOK || (wantOK && got != want) {
						t.Fatalf("scene %d center %d op %d from %d: row lookup (%d,%v), linear (%d,%v)",
							scene, ci, op, from, got, gotOK, want, wantOK)
					}
					if it, ok := p.g.Nearest(q); ok != wantOK || (ok && model.TaskID(it.ID) != want) {
						t.Fatalf("scene %d: grid disagrees with the linear scan", scene)
					}
					if via == byRow {
						hits++
					} else {
						fallbacks++
					}
				}
			}
			r.Release()
			b.Release()
		}
	}
	if hits == 0 || fallbacks == 0 {
		t.Fatalf("scenes exercised rows %d times and the grid %d times; want both", hits, fallbacks)
	}
}

// TestTaskRowsMatchBruteForce checks every filled row against a full
// (d², ID) sort of the center's other tasks, on scenes with ties and on a
// vertical line (the sweep runs along y there).
func TestTaskRowsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for scene := 0; scene < 40; scene++ {
		in := rowScene(rng, 2+rng.Intn(80), 0)
		if scene%4 == 3 {
			for i := range in.Tasks {
				in.Tasks[i].Loc.X = 3
			}
		}
		in.EnsureHot()
		tab := getTable()
		tab.bind(in)
		th := in.HotTasks()
		for ci := range in.Centers {
			c := in.Center(model.CenterID(ci))
			tab.fill(c)
			for _, id := range c.Tasks {
				var want []rowEnt
				for _, o := range c.Tasks {
					if o != id {
						want = append(want, rowEnt{th[id].Loc.Dist2(th[o].Loc), o})
					}
				}
				slices.SortFunc(want, cmpRowEnt)
				row := tab.row(id)
				for k := range row {
					w := model.TaskID(-1)
					if k < len(want) {
						w = want[k].id
					}
					if row[k] != w {
						t.Fatalf("scene %d task %d: row %v, want prefix of %v", scene, id, row, want)
					}
				}
			}
		}
		putTable(tab)
	}
}

// TestTrialRowsMatchLinearScan compares every trial of the row-backed
// runner with the linear-scan assigner over the extended worker set, on the
// row scenes.
func TestTrialRowsMatchLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for scene := 0; scene < 40; scene++ {
		in := rowScene(rng, 2+rng.Intn(60), 2+rng.Intn(10))
		c := in.Center(0)
		all := c.Workers
		base := append([]model.WorkerID(nil), all[:rng.Intn(len(all))]...)
		baseline := SequentialOpt(in, c, base, c.Tasks, Options{LinearScan: true})
		b, ok := NewTrialBase(in, c, base, baseline.Routes, baseline.LeftTasks)
		if !ok {
			t.Fatalf("scene %d: linear-scan baseline does not line up with the serve order", scene)
		}
		r := b.NewRunner()
		for _, w := range all[len(base):] {
			got := normalizeResult(r.Trial(w))
			ws := append(append([]model.WorkerID(nil), base...), w)
			want := normalizeResult(SequentialOpt(in, c, ws, c.Tasks, Options{LinearScan: true}))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("scene %d cand %d:\n got  %+v\n want %+v", scene, w, got, want)
			}
			if seq := normalizeResult(Sequential(in, c, ws, c.Tasks)); !reflect.DeepEqual(seq, want) {
				t.Fatalf("scene %d cand %d: grid Sequential differs from the linear scan", scene, w)
			}
		}
		r.Release()
		b.Release()
	}
}

// TestRowsGuardForeignAndNonFinite covers the two cases where rows must
// step aside: a pool holding a task of another center (task rows list only
// same-center neighbours), and a non-finite location (no (d², ID) order).
func TestRowsGuardForeignAndNonFinite(t *testing.T) {
	in := rowScene(rand.New(rand.NewSource(24)), 30, 0)
	c := in.Center(0)
	pool := append([]model.TaskID{in.Centers[1].Tasks[0]}, c.Tasks...)
	b, ok := NewTrialBase(in, c, nil, nil, pool)
	if !ok || b.rowsOK {
		t.Fatalf("ok=%v rowsOK=%v: a foreign task must switch task rows off", ok, b.rowsOK)
	}
	b.Release()

	in = rowScene(rand.New(rand.NewSource(24)), 30, 0)
	c = in.Center(0)
	in.Tasks[c.Tasks[3]].Loc = geo.Pt(math.NaN(), 0)
	b, _ = NewTrialBase(in, c, nil, nil, c.Tasks)
	if b.rowsOK || len(b.crow) != 0 {
		t.Fatalf("rowsOK=%v, center row of %d: a NaN location must send every query to the grid", b.rowsOK, len(b.crow))
	}
	b.Release()
}
