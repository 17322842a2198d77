package assign

import (
	"cmp"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"imtao/internal/geo"
	"imtao/internal/model"
)

// Nearest-task rows (DESIGN.md §11). Every nearest query of Algorithm 2's
// greedy loop starts at the center or at the task a route took last, and
// runs against a pool that is a subset of the center's task set and only
// shrinks until it is rebuilt. A list of tasks in exact (d², ID) order from
// such a fixed query point answers the query by a forward walk: the first
// entry still in the pool is the one index.Grid.Nearest returns, because
// Nearest minimises the same (d², ID) key over the same live set. Two kinds
// of list exist:
//
//   - the center row: the pool's whole start set ordered from the center,
//     walked with a cursor that only moves forward while the pool shrinks;
//   - task rows: each task's rowLen nearest other tasks of its center, held
//     in a pooled nearTable. A row with no live entry left says nothing
//     about the tasks beyond it, so the query falls back to the grid.

// rowLen is the length of a task row: rowLen TaskIDs fill one 64-byte cache
// line.
const rowLen = 8

// fromCenter is the query origin of taskPool.nearest for a query made at the
// center itself; other origins are the ID of the task the worker stands on.
const fromCenter model.TaskID = -1

// rowEnt is one center-row entry: a task and its squared distance to the
// center, computed exactly as Grid.Nearest computes it.
type rowEnt struct {
	d2 float64
	id model.TaskID
}

// cmpRowEnt orders entries by (d², ID), the tie-break of Grid.Nearest.
func cmpRowEnt(a, b rowEnt) int {
	if a.d2 != b.d2 {
		if a.d2 < b.d2 {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.id, b.id)
}

// appendRow appends tasks to row with their squared distance to at.
func appendRow(row []rowEnt, th []model.TaskHot, at geo.Point, tasks []model.TaskID) []rowEnt {
	for _, id := range tasks {
		row = append(row, rowEnt{at.Dist2(th[id].Loc), id})
	}
	return row
}

// sortRow puts row in (d², ID) order. A row with a non-finite distance
// comes back empty, which sends every center query to the grid: Grid.Nearest
// never returns an item at infinite or NaN distance, and such keys have no
// total order to walk.
func sortRow(row []rowEnt) []rowEnt {
	for _, e := range row {
		if !(e.d2 <= math.MaxFloat64) {
			return row[:0]
		}
	}
	slices.SortFunc(row, cmpRowEnt)
	return row
}

// nearTable holds the task rows of one instance: for each task of a filled
// center, its rowLen nearest other tasks of that center in (d², ID) order,
// padded with -1 when the center has fewer. The rows live in one flat slice
// indexed by TaskID*rowLen. A center is filled the first time a trial base
// is reset on it, and tables are recycled across games through tableFree.
type nearTable struct {
	in   *model.Instance
	rows []model.TaskID
	// rowFill[t] is the fill stamp of t's row and centerFill[c] the stamp of
	// c's fill since bind (0: not filled); t's row belongs to c's fill iff
	// the two match. Stamps only grow, so bind forgets every earlier fill
	// by clearing centerFill alone.
	rowFill    []uint32
	centerFill []uint32
	fills      uint32
	// maxTasks is the largest center task count, which sizes sweep (the
	// fill scratch) and the trial base's center row once per bind.
	maxTasks int
	sweep    []sweepEnt
}

// sweepEnt is a task in the fill sweep, keyed by its coordinate on the
// sweep axis.
type sweepEnt struct {
	k  float64
	p  geo.Point
	id model.TaskID
}

// tableFree recycles nearTables (and their instance-sized arrays) across
// games, like gridFree does for the trial grids. A sync.Pool alone misses
// whenever a game releases its table on one P and the next game asks on
// another (no P can take another's private slot), and every miss allocates
// the rows afresh; so the table released last waits in spareTable, where
// any P finds it.
var (
	tableFree  = sync.Pool{New: func() any { return new(nearTable) }}
	spareTable atomic.Pointer[nearTable]
)

func getTable() *nearTable {
	if t := spareTable.Swap(nil); t != nil {
		return t
	}
	return tableFree.Get().(*nearTable)
}

// putTable releases t; it must not be used afterwards.
func putTable(t *nearTable) {
	t.in = nil
	if !spareTable.CompareAndSwap(nil, t) {
		tableFree.Put(t)
	}
}

// bind points the table at in, forgetting every filled center and sizing
// every array for in, so later fills allocate nothing.
func (t *nearTable) bind(in *model.Instance) {
	t.in = in
	n := len(in.Tasks)
	t.rows = resize(t.rows, n*rowLen)
	t.rowFill = resize(t.rowFill, n)
	t.centerFill = resize(t.centerFill, len(in.Centers))
	clear(t.centerFill)
	t.maxTasks = 0
	for ci := range in.Centers {
		t.maxTasks = max(t.maxTasks, len(in.Centers[ci].Tasks))
	}
	t.sweep = slices.Grow(t.sweep[:0], t.maxTasks)
}

// resize returns s with length n, reusing its backing array when it is
// large enough. Reused contents are stale.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// covers fills c's rows if this bind has not yet, then reports whether
// every task of pool has a row from c's fill — the condition under which
// the rows answer every query of a pool that starts as pool.
func (t *nearTable) covers(c *model.Center, pool []rowEnt) bool {
	if int(c.ID) < 0 || int(c.ID) >= len(t.centerFill) {
		return false
	}
	if t.centerFill[c.ID] == 0 {
		t.fill(c)
	}
	stamp := t.centerFill[c.ID]
	for _, e := range pool {
		if t.rowFill[e.id] != stamp {
			return false
		}
	}
	return true
}

// fill builds the rows of c's tasks with a sweep along the longer side of
// their bounding box: from each task it walks outward along that axis until
// the axis gap squared alone exceeds the row's current worst d², which no
// farther task can beat, since d² ≥ gap² holds in floating point too. A
// center whose span overflows d² gets a stamp but no rows, so covers reports
// false for it and every query goes to the grid.
func (t *nearTable) fill(c *model.Center) {
	t.fills++
	if t.fills == 0 {
		// Stamp wrap: stale row stamps could alias new ones.
		clear(t.rowFill)
		clear(t.centerFill)
		t.fills = 1
	}
	stamp := t.fills
	t.centerFill[c.ID] = stamp
	th := t.in.HotTasks()
	if len(c.Tasks) == 0 {
		return
	}
	lo, hi := th[c.Tasks[0]].Loc, th[c.Tasks[0]].Loc
	for _, id := range c.Tasks {
		p := th[id].Loc
		lo.X, hi.X = min(lo.X, p.X), max(hi.X, p.X)
		lo.Y, hi.Y = min(lo.Y, p.Y), max(hi.Y, p.Y)
	}
	if !(lo.Dist2(hi) <= math.MaxFloat64) {
		// Every pairwise d² is at most the box's squared diagonal; past
		// MaxFloat64 (or NaN) some d² is not a finite key.
		return
	}
	alongY := hi.Y-lo.Y > hi.X-lo.X
	sw := t.sweep[:0]
	for _, id := range c.Tasks {
		p := th[id].Loc
		k := p.X
		if alongY {
			k = p.Y
		}
		sw = append(sw, sweepEnt{k, p, id})
	}
	t.sweep = sw
	slices.SortFunc(sw, func(a, b sweepEnt) int {
		if o := cmp.Compare(a.k, b.k); o != 0 {
			return o
		}
		return cmp.Compare(a.id, b.id)
	})
	for i := range sw {
		q := &sw[i]
		var best [rowLen]rowEnt
		n := 0
		for j := i - 1; j >= 0; j-- {
			if gap := q.k - sw[j].k; n == rowLen && gap*gap > best[n-1].d2 {
				break
			}
			n = insertBest(&best, n, rowEnt{q.p.Dist2(sw[j].p), sw[j].id})
		}
		for j := i + 1; j < len(sw); j++ {
			if gap := sw[j].k - q.k; n == rowLen && gap*gap > best[n-1].d2 {
				break
			}
			n = insertBest(&best, n, rowEnt{q.p.Dist2(sw[j].p), sw[j].id})
		}
		row := t.row(q.id)
		for k := range row {
			if k < n {
				row[k] = best[k].id
			} else {
				row[k] = -1
			}
		}
		t.rowFill[q.id] = stamp
	}
}

// insertBest inserts e into the (d², ID)-sorted best[:n], keeping at most
// rowLen entries, and returns the new count.
func insertBest(best *[rowLen]rowEnt, n int, e rowEnt) int {
	if n == rowLen {
		if cmpRowEnt(e, best[n-1]) >= 0 {
			return n
		}
		n--
	}
	i := n
	for i > 0 && cmpRowEnt(e, best[i-1]) < 0 {
		best[i] = best[i-1]
		i--
	}
	best[i] = e
	return n + 1
}

// row returns task id's row.
func (t *nearTable) row(id model.TaskID) []model.TaskID {
	return t.rows[int(id)*rowLen : int(id)*rowLen+rowLen]
}
