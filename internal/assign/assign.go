// Package assign implements phase 1 of IMTAO: center-independent spatial
// task assignment. It provides the paper's two per-center assigners:
//
//   - Sequential — the efficient sequential task assignment heuristic
//     (paper Algorithm 2): workers sorted marginal-first, each greedily
//     extending a delivery sequence with the nearest unassigned task that
//     still meets its deadline.
//
//   - Optimal — the "Opt" baseline (paper §VI-A): enumerate every valid
//     task delivery set (VTDS) per worker, then resolve conflicts exactly
//     with branch-and-bound set packing maximizing the number of assigned
//     tasks.
//
// Both operate on an explicit worker/task list so that phase 2 can re-run
// them over a recipient center's own plus borrowed workers (the
// bi-directional collaboration of paper §V-D).
package assign

import (
	"math/rand"
	"sort"
	"sync"

	"imtao/internal/geo"
	"imtao/internal/index"
	"imtao/internal/model"
	"imtao/internal/obs"
	"imtao/internal/slab"
)

// Result is the outcome of a per-center assignment: the routes of A(c) —
// one per worker that received a non-empty VTDS — plus the unused workers
// c.W_left and unassigned tasks c.S_left that feed phase 2.
type Result struct {
	Routes      []model.Route
	LeftWorkers []model.WorkerID
	LeftTasks   []model.TaskID
	// Stats counts the work the call performed, feeding the obs layer's
	// per-center events and pipeline counters. Deterministic for a given
	// input, so results stay comparable across parallelism levels.
	Stats Stats
}

// Stats is the work profile of one assignment call.
type Stats struct {
	// TasksScanned counts candidate-task evaluations: nearest-neighbour
	// pool queries for Sequential, VTDS extension probes for Optimal.
	TasksScanned int
	// DeadlineRejections counts candidates discarded for missing their
	// deadline: sequence-ending nearest-task failures for Sequential,
	// infeasible VTDS extensions for Optimal.
	DeadlineRejections int
	// RouteExtensions counts accepted task placements: tasks appended to a
	// route for Sequential, feasible VTDS extensions for Optimal.
	RouteExtensions int
	// RowHits counts nearest-task queries answered by walking a precomputed
	// (d², ID)-ordered row (rows.go), and GridFallbacks those answered by
	// index.Grid.Nearest: task-origin queries of the one-shot Sequential
	// runs, which build no task rows, and queries whose row had no live
	// entry left. The linear-scan pool counts neither.
	RowHits       int
	GridFallbacks int
}

// Pipeline-wide work counters, aggregated once per assignment call from the
// local Stats so the hot loops never touch shared cache lines.
var (
	mCalls = obs.Default.Counter("imtao_assign_calls_total",
		"per-center assignment calls (phase 1 and phase-2 trials)")
	mTasksScanned = obs.Default.Counter("imtao_assign_tasks_scanned_total",
		"candidate-task evaluations across all assignment calls")
	mDeadlineRej = obs.Default.Counter("imtao_assign_deadline_rejections_total",
		"task candidates rejected for missing their deadline")
	mRouteExt = obs.Default.Counter("imtao_assign_route_extensions_total",
		"accepted task placements (route extensions)")
	mRowHits = obs.Default.Counter("imtao_assign_nearest_row_hits_total",
		"nearest-task queries answered from a precomputed (d², ID)-ordered row")
	mGridFallbacks = obs.Default.Counter("imtao_assign_nearest_grid_fallbacks_total",
		"nearest-task queries answered by the grid index (no row, or its row ran out)")
)

func recordStats(s Stats) {
	mCalls.Inc()
	mTasksScanned.Add(int64(s.TasksScanned))
	mDeadlineRej.Add(int64(s.DeadlineRejections))
	mRouteExt.Add(int64(s.RouteExtensions))
	mRowHits.Add(int64(s.RowHits))
	mGridFallbacks.Add(int64(s.GridFallbacks))
}

// AssignedCount returns the number of tasks assigned in the result.
func (r *Result) AssignedCount() int {
	n := 0
	for _, rt := range r.Routes {
		n += len(rt.Tasks)
	}
	return n
}

// WorkerOrder selects the order in which Sequential serves workers.
// The paper sorts by distance from the center descending ("marginal workers
// first", Algorithm 2 line 4); the alternatives exist for the ablation study.
type WorkerOrder int

const (
	// MarginalFirst is the paper's order: farthest worker from the center
	// first, so workers with the least remaining delivery time get the
	// first pick of tasks.
	MarginalFirst WorkerOrder = iota
	// NearestFirst is the reverse of the paper's order.
	NearestFirst
	// ByID serves workers in ID order (arrival order).
	ByID
	// RandomOrder shuffles workers with the Options RNG.
	RandomOrder
)

// Options tunes Sequential. The zero value reproduces the paper exactly.
type Options struct {
	Order WorkerOrder
	// Rng is required only for RandomOrder.
	Rng *rand.Rand
	// LinearScan disables the grid index and finds nearest tasks by linear
	// scan — the index-choice ablation.
	LinearScan bool
	// Scan, when non-nil, observes per-worker scan decisions — currently the
	// sequence-ending deadline rejection of Algorithm 2 line 11. The
	// provenance ledger hangs its phase-1 scan events off this hook; trial
	// replays in phase 2 never set it.
	Scan ScanObserver
}

// ScanObserver receives the sequential assigner's per-worker scan decisions.
type ScanObserver interface {
	// RejectDeadline fires when worker w's greedy sequence ends because the
	// nearest remaining task t would be reached at arrive > expiry.
	RejectDeadline(w model.WorkerID, t model.TaskID, arrive, expiry float64)
}

// Sequential runs paper Algorithm 2 for center c over the given worker and
// task sets. Tasks are assigned in nearest-first order per worker; a worker's
// sequence ends when capacity is reached or the nearest remaining task can no
// longer meet its deadline. The returned routes pick up at center c.
func Sequential(in *model.Instance, c *model.Center, workers []model.WorkerID, tasks []model.TaskID) Result {
	return SequentialOpt(in, c, workers, tasks, Options{})
}

// SequentialOpt is Sequential with explicit options.
func SequentialOpt(in *model.Instance, c *model.Center, workers []model.WorkerID, tasks []model.TaskID, opt Options) Result {
	res := Result{}
	if len(workers) == 0 {
		res.LeftTasks = append([]model.TaskID(nil), tasks...)
		recordStats(res.Stats)
		return res
	}
	in.EnsureHot()
	wh := in.HotWorkers()

	// Algorithm 2 line 4: order workers. Ties break by ID for determinism.
	order := append([]model.WorkerID(nil), workers...)
	switch opt.Order {
	case MarginalFirst:
		sort.Slice(order, func(i, j int) bool {
			di := wh[order[i]].Loc.Dist2(c.Loc)
			dj := wh[order[j]].Loc.Dist2(c.Loc)
			if di != dj {
				return di > dj
			}
			return order[i] < order[j]
		})
	case NearestFirst:
		sort.Slice(order, func(i, j int) bool {
			di := wh[order[i]].Loc.Dist2(c.Loc)
			dj := wh[order[j]].Loc.Dist2(c.Loc)
			if di != dj {
				return di < dj
			}
			return order[i] < order[j]
		})
	case ByID:
		sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	case RandomOrder:
		rng := opt.Rng
		if rng == nil {
			rng = rand.New(rand.NewSource(0))
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}

	// Unassigned-task pool with nearest queries.
	var pool taskPool
	if opt.LinearScan {
		pool = newLinearPool(in, tasks)
	} else {
		pool = newGridPool(in, c, tasks)
	}

	cref := in.CenterRef(c.ID)
	for _, wid := range order {
		route := serveWorker(in, c, cref, wid, pool, &res.Stats, nil, opt.Scan)
		if len(route.Tasks) == 0 {
			// Line 19: unused worker — available for workforce transfer.
			res.LeftWorkers = append(res.LeftWorkers, wid)
		} else {
			res.Routes = append(res.Routes, route)
		}
	}
	res.LeftTasks = pool.remaining()
	if gp, ok := pool.(*gridPool); ok {
		gp.release()
	}
	sort.Slice(res.LeftTasks, func(i, j int) bool { return res.LeftTasks[i] < res.LeftTasks[j] })
	sort.Slice(res.LeftWorkers, func(i, j int) bool { return res.LeftWorkers[i] < res.LeftWorkers[j] })
	recordStats(res.Stats)
	return res
}

// serveWorker runs the per-worker inner loop of Algorithm 2 (lines 7–18):
// greedily extend wid's delivery sequence with nearest feasible tasks,
// consuming them from the shared pool. The pool is the ONLY cross-worker
// state of the sequential assigner — a fact the resumable trial engine
// (trial.go) exploits to replay just a suffix of the serve order.
//
// A non-nil arena supplies the route's task slice from recycled scratch
// (the trial engine's per-iteration buffers); nil falls back to a fresh
// allocation for the one-shot phase-1 path. min(MaxT, pool.len()) bounds the
// final route length exactly, so the grab never overflows its reservation.
func serveWorker(in *model.Instance, c *model.Center, cref model.NodeRef, wid model.WorkerID, pool taskPool, stats *Stats, arena *slab.Arena[model.TaskID], scan ScanObserver) model.Route {
	w := &in.HotWorkers()[wid]
	route := model.Route{Worker: wid, Center: c.ID}
	if hint := min(int(w.MaxT), pool.len()); hint > 0 {
		if arena != nil {
			route.Tasks = arena.Grab(hint)
		} else {
			route.Tasks = make([]model.TaskID, 0, hint)
		}
	}
	// Algorithm 2 lines 7–8: travel to the center first (Eq. 1).
	t := in.TravelTimeRef(w.Loc, w.Ref, c.Loc, cref)
	extendServe(in, &route, t, fromCenter, c.Loc, cref, int(w.MaxT), pool, stats, scan)
	return route
}

// extendServe runs Algorithm 2's inner greedy loop (lines 9–18) from an
// explicit resume state: the route so far, the time accumulator t and the
// worker's current position — the task it stands on (from, or fromCenter)
// and that task's location. serveWorker starts it at the center; the trial
// engine (trial.go) resumes it at the end of a preserved baseline route to
// check whether the trial pool extends the sequence.
func extendServe(in *model.Instance, route *model.Route, t float64, from model.TaskID, cur geo.Point, curRef model.NodeRef, maxT int, pool taskPool, stats *Stats, scan ScanObserver) {
	th := in.HotTasks()
	for len(route.Tasks) < maxT && pool.len() > 0 {
		// Line 10: nearest unassigned task to the worker's position.
		sid, ok, via := pool.nearest(cur, from)
		if !ok {
			break
		}
		switch via {
		case byRow:
			stats.RowHits++
		case byGrid:
			stats.GridFallbacks++
		}
		stats.TasksScanned++
		task := &th[sid]
		arrive := t + in.TravelTimeRef(cur, curRef, task.Loc, task.Ref)
		// Line 11: deadline check. Under the paper's uniform expiry a
		// failing nearest task means every remaining task fails too, so
		// the sequence ends here.
		if arrive > task.Expiry+timeEps {
			stats.DeadlineRejections++
			if scan != nil {
				scan.RejectDeadline(route.Worker, sid, arrive, task.Expiry)
			}
			break
		}
		pool.remove(sid)
		route.Tasks = append(route.Tasks, sid)
		stats.RouteExtensions++
		t = arrive
		from, cur, curRef = sid, task.Loc, task.Ref
	}
}

const timeEps = 1e-9

// taskPool abstracts the unassigned-task set with nearest queries and
// removal, so the index choice can be ablated. nearest's from names the
// query origin: fromCenter, or the task located at q (already consumed);
// via says which structure answered.
type taskPool interface {
	nearest(q geo.Point, from model.TaskID) (id model.TaskID, ok bool, via answer)
	remove(model.TaskID)
	len() int
	remaining() []model.TaskID
}

// answer names the structure that answered a nearest query.
type answer uint8

const (
	byScan answer = iota // the linear-scan pool
	byRow                // a center or task row (rows.go)
	byGrid               // index.Grid.Nearest
)

// gridPool is the grid-indexed task pool, answering nearest queries from
// the rows of rows.go where it can and from the grid otherwise.
type gridPool struct {
	g *index.Grid
	// crow is the center row of the pool's start set; every entry before
	// cur is gone from the grid. That holds only while the pool shrinks, so
	// a rebuild and every mark restart the cursor at 0 (a trial re-grows
	// the pool only by Rewind, and marks before its next query).
	crow []rowEnt
	cur  int
	// rows holds task rows covering the start set, or is nil (phase 1).
	rows *nearTable
	// buf backs crow for the one-shot Sequential pools; trial runners
	// point crow at their base's row instead.
	buf []rowEnt
}

// gridFree recycles gridPool instances (and their Grid backing arrays)
// across assignment calls. Phase 2 runs one full assignment per candidate
// trial, so without reuse every trial pays a fresh cells-array allocation;
// sync.Pool keeps the scratch per-P, which also suits the per-goroutine
// trial evaluation.
var gridFree = sync.Pool{New: func() any { return &gridPool{g: &index.Grid{}} }}

func newGridPool(in *model.Instance, c *model.Center, tasks []model.TaskID) *gridPool {
	p := gridFree.Get().(*gridPool)
	p.g.Reset(in.Bounds, max(len(tasks), 1), 4)
	th := in.HotTasks()
	for _, id := range tasks {
		p.g.Insert(index.Item{ID: int(id), Point: th[id].Loc})
	}
	p.buf = sortRow(appendRow(p.buf[:0], th, c.Loc, tasks))
	p.crow, p.cur, p.rows = p.buf, 0, nil
	return p
}

// release returns the pool's scratch to the free list. The caller must not
// touch the gridPool afterwards.
func (p *gridPool) release() {
	p.crow, p.rows = nil, nil
	gridFree.Put(p)
}

// mark starts journaling the pool for a trial. From Mark to Rewind the
// pool only shrinks, so the center-row cursor restarts here and then only
// moves forward.
func (p *gridPool) mark() {
	p.g.Mark()
	p.cur = 0
}

// nearest answers a center query from the center row and a task query from
// the origin's task row, falling back to Grid.Nearest when there is no row
// or the row has no live entry. Both rows hold a superset of the live set's
// nearest candidates in (d², ID) order, so the first live entry is exactly
// Grid.Nearest's answer. A task row lists its task's neighbours, not the
// task itself, so it applies only once the origin is consumed.
func (p *gridPool) nearest(q geo.Point, from model.TaskID) (model.TaskID, bool, answer) {
	if from == fromCenter {
		for ; p.cur < len(p.crow); p.cur++ {
			if id := p.crow[p.cur].id; p.g.Contains(int(id)) {
				return id, true, byRow
			}
		}
	} else if p.rows != nil && from >= 0 && !p.g.Contains(int(from)) {
		for _, id := range p.rows.row(from) {
			if id < 0 {
				break
			}
			if p.g.Contains(int(id)) {
				return id, true, byRow
			}
		}
	}
	it, ok := p.g.Nearest(q)
	return model.TaskID(it.ID), ok, byGrid
}
func (p *gridPool) remove(id model.TaskID) { p.g.Remove(int(id)) }
func (p *gridPool) len() int               { return p.g.Len() }
func (p *gridPool) remaining() []model.TaskID {
	items := p.g.Items()
	out := make([]model.TaskID, len(items))
	for i, it := range items {
		out[i] = model.TaskID(it.ID)
	}
	return out
}

type linearPool struct {
	items []index.Item
	// slot maps item ID → index in items, turning remove into an O(1)
	// swap-delete instead of a scan. nearest already costs O(n), so before
	// this map the pool was O(n) twice per accepted task.
	slot map[int]int
}

func newLinearPool(in *model.Instance, tasks []model.TaskID) *linearPool {
	p := &linearPool{
		items: make([]index.Item, len(tasks)),
		slot:  make(map[int]int, len(tasks)),
	}
	for i, id := range tasks {
		p.items[i] = index.Item{ID: int(id), Point: in.Task(id).Loc}
		p.slot[int(id)] = i
	}
	return p
}

func (p *linearPool) nearest(q geo.Point, _ model.TaskID) (model.TaskID, bool, answer) {
	it, ok := index.LinearNearest(p.items, q, nil)
	return model.TaskID(it.ID), ok, byScan
}

func (p *linearPool) remove(id model.TaskID) {
	i, ok := p.slot[int(id)]
	if !ok {
		return
	}
	last := len(p.items) - 1
	if i != last {
		p.items[i] = p.items[last]
		p.slot[p.items[i].ID] = i
	}
	p.items = p.items[:last]
	delete(p.slot, int(id))
}
func (p *linearPool) len() int { return len(p.items) }
func (p *linearPool) remaining() []model.TaskID {
	out := make([]model.TaskID, len(p.items))
	for i, it := range p.items {
		out[i] = model.TaskID(it.ID)
	}
	return out
}
