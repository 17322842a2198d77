package workload

import (
	"bytes"
	"math"
	"testing"

	"imtao/internal/geo"
	"imtao/internal/model"
)

func TestDefaults(t *testing.T) {
	for _, d := range []Dataset{SYN, GM} {
		p := Defaults(d)
		if p.NumCenters != 20 || p.NumWorkers != 100 || p.NumTasks != 400 ||
			p.Expiry != 1.0 || p.MaxT != 4 {
			t.Errorf("%v defaults = %+v", d, p)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%v defaults invalid: %v", d, err)
		}
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{NumCenters: 0, Expiry: 1},
		{NumCenters: 5, NumTasks: -1, Expiry: 1},
		{NumCenters: 5, Expiry: 0},
		{NumCenters: 5, Expiry: 1, MaxT: -1},
		{NumCenters: 5, Expiry: 1, Speed: -3},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected error for %+v", i, p)
		}
	}
}

func TestGenerateCountsAndBounds(t *testing.T) {
	for _, d := range []Dataset{SYN, GM} {
		p := Defaults(d)
		p.NumTasks, p.NumWorkers, p.NumCenters = 50, 20, 5
		in, err := Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(in.Tasks) != 50 || len(in.Workers) != 20 || len(in.Centers) != 5 {
			t.Fatalf("%v: counts %d/%d/%d", d, len(in.Tasks), len(in.Workers), len(in.Centers))
		}
		for _, task := range in.Tasks {
			if !in.Bounds.Contains(task.Loc) {
				t.Fatalf("%v: task outside bounds: %v", d, task.Loc)
			}
			if task.Center != model.NoCenter {
				t.Fatalf("%v: generated instance must be unpartitioned", d)
			}
			if task.Expiry != p.Expiry || task.Reward != p.Reward {
				t.Fatalf("%v: task params not applied", d)
			}
		}
		for _, w := range in.Workers {
			if !in.Bounds.Contains(w.Loc) {
				t.Fatalf("%v: worker outside bounds", d)
			}
			if w.MaxT != p.MaxT {
				t.Fatalf("%v: worker MaxT not applied", d)
			}
		}
		if in.Speed != p.Speed {
			t.Fatalf("%v: speed not applied", d)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := Defaults(GM)
	p.Seed = 42
	a, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Tasks {
		if !a.Tasks[i].Loc.Eq(b.Tasks[i].Loc) {
			t.Fatal("same seed produced different tasks")
		}
	}
	p.Seed = 43
	c, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Tasks {
		if !a.Tasks[i].Loc.Eq(c.Tasks[i].Loc) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical tasks")
	}
}

func TestGenerateZeroSpeedDefaults(t *testing.T) {
	p := Defaults(SYN)
	p.Speed = 0
	in, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if in.Speed != DefaultSpeed {
		t.Fatalf("speed = %v, want DefaultSpeed", in.Speed)
	}
}

// GM's distinguishing feature versus SYN is that supply tracks demand:
// workers congregate where tasks are, so the mean worker-to-nearest-task
// distance must be clearly smaller than under the uniform dataset.
func TestGMWorkersTrackTasks(t *testing.T) {
	pg, ps := Defaults(GM), Defaults(SYN)
	pg.Seed, ps.Seed = 5, 5
	gm, err := Generate(pg)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := Generate(ps)
	if err != nil {
		t.Fatal(err)
	}
	if g, s := meanWorkerTaskDist(gm), meanWorkerTaskDist(syn); g > 0.8*s {
		t.Fatalf("GM worker->task dist %v not clearly below SYN %v", g, s)
	}
}

func meanWorkerTaskDist(in *model.Instance) float64 {
	var sum float64
	for _, w := range in.Workers {
		best := math.Inf(1)
		for _, task := range in.Tasks {
			if d := w.Loc.Dist(task.Loc); d < best {
				best = d
			}
		}
		sum += best
	}
	return sum / float64(len(in.Workers))
}

func TestParseDataset(t *testing.T) {
	if d, err := ParseDataset("gm"); err != nil || d != GM {
		t.Errorf("gm: %v %v", d, err)
	}
	if d, err := ParseDataset("SYN"); err != nil || d != SYN {
		t.Errorf("SYN: %v %v", d, err)
	}
	if _, err := ParseDataset("nope"); err == nil {
		t.Error("expected error")
	}
	if GM.String() != "GM" || SYN.String() != "SYN" {
		t.Error("String() mismatch")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	p := Defaults(GM)
	p.NumTasks, p.NumWorkers, p.NumCenters = 30, 10, 4
	in, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, in); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameInstance(t, in, got)
}

func TestReadJSONError(t *testing.T) {
	if _, err := ReadJSON(bytes.NewBufferString("{nope")); err == nil {
		t.Error("malformed json must error")
	}
}

func assertSameInstance(t *testing.T, want, got *model.Instance) {
	t.Helper()
	if got.Speed != want.Speed {
		t.Fatalf("speed %v != %v", got.Speed, want.Speed)
	}
	if !got.Bounds.Min.Eq(want.Bounds.Min) || !got.Bounds.Max.Eq(want.Bounds.Max) {
		t.Fatal("bounds mismatch")
	}
	if len(got.Centers) != len(want.Centers) || len(got.Tasks) != len(want.Tasks) || len(got.Workers) != len(want.Workers) {
		t.Fatal("count mismatch")
	}
	for i := range want.Centers {
		if !got.Centers[i].Loc.Eq(want.Centers[i].Loc) {
			t.Fatalf("center %d location mismatch", i)
		}
	}
	for i := range want.Tasks {
		if !got.Tasks[i].Loc.Eq(want.Tasks[i].Loc) ||
			math.Abs(got.Tasks[i].Expiry-want.Tasks[i].Expiry) > 1e-12 ||
			math.Abs(got.Tasks[i].Reward-want.Tasks[i].Reward) > 1e-12 {
			t.Fatalf("task %d mismatch", i)
		}
	}
	for i := range want.Workers {
		if !got.Workers[i].Loc.Eq(want.Workers[i].Loc) || got.Workers[i].MaxT != want.Workers[i].MaxT {
			t.Fatalf("worker %d mismatch", i)
		}
	}
}

func TestSolutionJSONRoundTrip(t *testing.T) {
	// Build a small instance + hand solution, round-trip it.
	p := Defaults(SYN)
	p.NumTasks, p.NumWorkers, p.NumCenters = 6, 3, 2
	in, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	// Manual partition: everything to center 0 except task 5 / worker 2.
	for i := range in.Tasks {
		c := model.CenterID(0)
		if i == 5 {
			c = 1
		}
		in.Tasks[i].Center = c
		in.Centers[c].Tasks = append(in.Centers[c].Tasks, model.TaskID(i))
	}
	for i := range in.Workers {
		c := model.CenterID(0)
		if i == 2 {
			c = 1
		}
		in.Workers[i].Home = c
		in.Centers[c].Workers = append(in.Centers[c].Workers, model.WorkerID(i))
	}
	sol := model.NewSolution(in)
	sol.PerCenter[0].Routes = []model.Route{
		{Worker: 0, Center: 0, Tasks: []model.TaskID{0, 2}},
		{Worker: 1, Center: 0, Tasks: []model.TaskID{1}},
	}
	sol.PerCenter[1].Routes = []model.Route{{Worker: 2, Center: 1, Tasks: []model.TaskID{5}}}
	sol.Transfers = []model.Transfer{{Src: 0, Dst: 1, Worker: 1}}

	var buf bytes.Buffer
	if err := WriteSolutionJSON(&buf, sol); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSolutionJSON(&buf, in)
	if err != nil {
		t.Fatal(err)
	}
	if got.AssignedCount() != sol.AssignedCount() {
		t.Fatalf("count %d != %d", got.AssignedCount(), sol.AssignedCount())
	}
	if len(got.Transfers) != 1 || got.Transfers[0] != sol.Transfers[0] {
		t.Fatalf("transfers = %v", got.Transfers)
	}
	for ci := range sol.PerCenter {
		if len(got.PerCenter[ci].Routes) != len(sol.PerCenter[ci].Routes) {
			t.Fatalf("center %d route count differs", ci)
		}
	}
}

func TestReadSolutionJSONRejectsInconsistent(t *testing.T) {
	p := Defaults(SYN)
	p.NumTasks, p.NumWorkers, p.NumCenters = 2, 1, 1
	in, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	in.Tasks[0].Center, in.Tasks[1].Center = 0, 0
	in.Centers[0].Tasks = []model.TaskID{0, 1}
	in.Workers[0].Home = 0
	in.Centers[0].Workers = []model.WorkerID{0}

	// Duplicate task across routes.
	bad := `{"centers":[{"center":0,"routes":[{"worker":0,"tasks":[0,0]}]}]}`
	if _, err := ReadSolutionJSON(bytes.NewBufferString(bad), in); err == nil {
		t.Error("duplicate-task solution accepted")
	}
	// Unknown center.
	bad = `{"centers":[{"center":7,"routes":[]}]}`
	if _, err := ReadSolutionJSON(bytes.NewBufferString(bad), in); err == nil {
		t.Error("unknown-center solution accepted")
	}
	// Garbage.
	if _, err := ReadSolutionJSON(bytes.NewBufferString("{"), in); err == nil {
		t.Error("malformed json accepted")
	}
}

func TestGeneratePresets(t *testing.T) {
	for _, preset := range []Preset{Corridor, TwinCities, RingRoad} {
		p := Defaults(SYN)
		p.NumTasks, p.NumWorkers, p.NumCenters = 100, 30, 6
		in, err := GeneratePreset(preset, p)
		if err != nil {
			t.Fatalf("%v: %v", preset, err)
		}
		if len(in.Tasks) != 100 || len(in.Workers) != 30 || len(in.Centers) != 6 {
			t.Fatalf("%v: counts wrong", preset)
		}
		for _, task := range in.Tasks {
			if !in.Bounds.Contains(task.Loc) {
				t.Fatalf("%v: task outside bounds", preset)
			}
		}
	}
	if Corridor.String() != "Corridor" || TwinCities.String() != "TwinCities" || RingRoad.String() != "RingRoad" {
		t.Error("preset names")
	}
}

func TestGeneratePresetShapes(t *testing.T) {
	p := Defaults(SYN)
	p.NumTasks, p.NumWorkers, p.NumCenters = 400, 50, 8
	p.Seed = 7

	// Corridor: y-coordinates hug the mid line.
	corr, err := GeneratePreset(Corridor, p)
	if err != nil {
		t.Fatal(err)
	}
	off := 0
	for _, task := range corr.Tasks {
		if math.Abs(task.Loc.Y-Side/2) > Side*0.25 {
			off++
		}
	}
	if off > len(corr.Tasks)/20 {
		t.Errorf("corridor: %d/%d tasks far off the band", off, len(corr.Tasks))
	}

	// TwinCities: x-coordinates avoid the middle.
	twin, err := GeneratePreset(TwinCities, p)
	if err != nil {
		t.Fatal(err)
	}
	mid := 0
	for _, task := range twin.Tasks {
		if math.Abs(task.Loc.X-Side/2) < Side*0.1 {
			mid++
		}
	}
	if mid > len(twin.Tasks)/10 {
		t.Errorf("twin cities: %d/%d tasks in the gap", mid, len(twin.Tasks))
	}

	// RingRoad: radii concentrate around 0.35*Side.
	ring, err := GeneratePreset(RingRoad, p)
	if err != nil {
		t.Fatal(err)
	}
	center := geo.Pt(Side/2, Side/2)
	offRing := 0
	for _, task := range ring.Tasks {
		r := task.Loc.Dist(center)
		if math.Abs(r-Side*0.35) > Side*0.15 {
			offRing++
		}
	}
	if offRing > len(ring.Tasks)/10 {
		t.Errorf("ring road: %d/%d tasks off the ring", offRing, len(ring.Tasks))
	}
}

func TestGeneratePresetErrors(t *testing.T) {
	bad := Params{NumCenters: 0, Expiry: 1}
	if _, err := GeneratePreset(Corridor, bad); err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := GeneratePreset(Preset(99), Defaults(SYN)); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestRewardJitter(t *testing.T) {
	p := Defaults(SYN)
	p.RewardJitter = 0.5
	p.NumTasks = 200
	in, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, task := range in.Tasks {
		if task.Reward < p.Reward*0.5-1e-9 || task.Reward > p.Reward*1.5+1e-9 {
			t.Fatalf("reward %v outside jitter range", task.Reward)
		}
		lo = math.Min(lo, task.Reward)
		hi = math.Max(hi, task.Reward)
	}
	if hi-lo < p.Reward*0.5 {
		t.Errorf("rewards barely spread: [%v, %v]", lo, hi)
	}
	p.RewardJitter = 1.0
	if err := p.Validate(); err == nil {
		t.Error("jitter 1.0 must be rejected")
	}
	p.RewardJitter = -0.1
	if err := p.Validate(); err == nil {
		t.Error("negative jitter must be rejected")
	}
}
