package assign

import (
	"cmp"
	"slices"

	"imtao/internal/index"
	"imtao/internal/model"
	"imtao/internal/slab"
)

// SequentialScratch runs the paper-default Sequential assigner
// (SequentialOpt with Options{}) through recycled buffers: the worker order,
// the route task slices, the route headers, and both leftover sets all come
// from per-scratch storage that reaches high-water capacity and stays there.
// The phase-2 game uses one scratch for its re-baseline path — the fresh
// assigner run a recipient needs after lending a worker — which would
// otherwise be the last allocating operation in the steady state.
//
// Run returns results bit-identical to Sequential: the serve loop, the pool
// and the deadline checks are the shared serveWorker/extendServe code, and
// every ordering (marginal-first with ID ties, ID-sorted leftover sets) is a
// total order, so the sort algorithm cannot influence the output.
type SequentialScratch struct {
	order  []model.WorkerID
	routes []model.Route
	lws    []model.WorkerID
	left   []model.TaskID
	items  []index.Item
	tasks  slab.Arena[model.TaskID]
}

// Run is Sequential(in, c, workers, tasks) drawing every result slice from
// the scratch. The Result — and every slice it carries — is valid only until
// the next Run; callers that keep it must deep-copy first.
func (s *SequentialScratch) Run(in *model.Instance, c *model.Center,
	workers []model.WorkerID, tasks []model.TaskID) Result {

	res := Result{}
	if len(workers) == 0 {
		s.left = append(s.left[:0], tasks...)
		res.LeftTasks = s.left
		recordStats(res.Stats)
		return res
	}
	in.EnsureHot()
	wh := in.HotWorkers()

	// Marginal-first with ID tiebreak is a total order over unique ids, so
	// SortFunc agrees with SequentialOpt's sort.Slice element for element.
	s.order = append(s.order[:0], workers...)
	order := s.order
	slices.SortFunc(order, func(a, b model.WorkerID) int {
		da := wh[a].Loc.Dist2(c.Loc)
		db := wh[b].Loc.Dist2(c.Loc)
		if da != db {
			if da > db {
				return -1
			}
			return 1
		}
		return cmp.Compare(a, b)
	})

	pool := newGridPool(in, c, tasks)
	s.tasks.Reset()

	routes := s.routes[:0]
	lws := s.lws[:0]
	cref := in.CenterRef(c.ID)
	for _, wid := range order {
		route := serveWorker(in, c, cref, wid, pool, &res.Stats, &s.tasks, nil)
		if len(route.Tasks) == 0 {
			lws = append(lws, wid)
		} else {
			routes = append(routes, route)
		}
	}
	s.items = pool.g.ItemsAppend(s.items[:0])
	left := s.left[:0]
	for _, it := range s.items {
		left = append(left, model.TaskID(it.ID))
	}
	pool.release()
	slices.Sort(left)
	slices.Sort(lws)
	s.routes, s.lws, s.left = routes, lws, left

	res.Routes = routes
	res.LeftWorkers = lws
	res.LeftTasks = left
	recordStats(res.Stats)
	return res
}
