package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"imtao/internal/assign"
	"imtao/internal/collab"
	"imtao/internal/core"
	"imtao/internal/geo"
	"imtao/internal/metrics"
	"imtao/internal/model"
	"imtao/internal/obs"
	"imtao/internal/provenance"
	"imtao/internal/roadnet"
	"imtao/internal/stats"
)

// The obs.Default series the traced run differences around the layers it
// times; looking a name up returns the series its package registered.
var (
	ctrCacheHits    = obs.Default.Counter("imtao_roadnet_cache_hits_total", "")
	ctrCacheMisses  = obs.Default.Counter("imtao_roadnet_cache_misses_total", "")
	ctrSingleflight = obs.Default.Counter("imtao_roadnet_singleflight_waits_total", "")
	ctrScanned      = obs.Default.Counter("imtao_assign_tasks_scanned_total", "")
	qDijkstra       = obs.Default.Quantile("imtao_roadnet_dijkstra_seconds", "")
)

// counters is one reading of the program's own work counters.
type counters struct {
	hits, misses, waits, scanned, dijkstraRuns int64
	dijkstraBusyS                              float64
}

func readCounters(net *roadnet.Network) counters {
	c := counters{
		hits:          ctrCacheHits.Value(),
		misses:        ctrCacheMisses.Value(),
		waits:         ctrSingleflight.Value(),
		scanned:       ctrScanned.Value(),
		dijkstraBusyS: qDijkstra.Sum(),
	}
	if net != nil {
		c.dijkstraRuns = net.Stats().DijkstraRuns
	}
	return c
}

// decomposition is one solve replayed step by step through the public entry
// point of each layer, in core.Run's order and configuration, with a span
// around every call.
type decomposition struct {
	in     *model.Instance
	phase1 []assign.Result
	ccfg   collab.Config
	res    collab.Result
	// before, afterPhase1 and after read the counters at the solve's start,
	// at the end of phase 1 and at its end.
	before, afterPhase1, after counters
}

// decompose solves raw under the root span, mirroring core.Partition
// followed by core.Run with the unsharded game.
func (r *run) decompose(raw *model.Instance, tr *obs.Tracer, root obs.SpanID) (*decomposition, error) {
	d := &decomposition{before: readCounters(r.net)}

	sp := tr.Start(root, "voronoi.partition")
	in, _, err := core.Partition(raw)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	d.in = in

	sp = tr.Start(root, "roadnet.prepare_metric")
	in.PrepareMetric()
	sp.End()
	locs := make([]geo.Point, len(in.Centers))
	for i := range in.Centers {
		locs[i] = in.Centers[i].Loc
	}
	sp = tr.Start(root, "roadnet.center_tables")
	r.net.PrecomputeSources(locs)
	sp.End()

	// Phase 1 fans the centers out over GOMAXPROCS goroutines, as core.Run.
	p1 := tr.Start(root, "assign.phase1")
	d.phase1 = make([]assign.Result, len(in.Centers))
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := min(runtime.GOMAXPROCS(0), len(in.Centers)); g > 0; g-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				ci := int(next.Add(1) - 1)
				if ci >= len(in.Centers) {
					return
				}
				c := in.Center(model.CenterID(ci))
				cs := tr.Start(p1.ID(), "assign.center", obs.F("center", ci))
				d.phase1[ci] = assign.Sequential(in, c, c.Workers, c.Tasks)
				cs.End()
			}
		}()
	}
	wg.Wait()
	p1.End()
	d.afterPhase1 = readCounters(r.net)

	d.ccfg = collab.Config{Assigner: assign.Sequential}
	p2 := tr.Start(root, "collab.phase2")
	sp = tr.Start(p2.ID(), "collab.new_game")
	g := collab.NewGame(in, d.phase1, d.ccfg)
	sp.End()
	for !g.Over() {
		sp = tr.Start(p2.ID(), "collab.step")
		g.Step()
		sp.End()
	}
	d.res = g.Finish()
	p2.End()
	d.after = readCounters(r.net)
	return d, nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// traced solves round 0 once more, traced, after the untraced measurement t
// and returns every per-layer metric. The spans and the CPU profile are
// written to outDir. The traced solve and the sharded probe count as
// attempted solves: the traced solve fails when its fingerprint differs from
// the untraced solves', and either fails when its solution is not an
// equilibrium.
func (r *run) traced(t *timed, outDir string) (map[string]float64, error) {
	m := map[string]float64{}
	tr := obs.NewTracer(0)
	raw := r.rounds[0]

	// A cold workload's traced solve gets a fresh network, as every timed
	// solve; a warm one keeps the shared network, and the build is timed on
	// a network that is thrown away.
	sp := tr.Start(0, "roadnet.build")
	net, err := newNetwork(raw)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("build network: %w", err)
	}
	if r.spec.freshNet {
		r.net = net
		for _, in := range r.rounds {
			in.Metric = net
		}
	}

	var prof bytes.Buffer
	var ms0, ms1 runtime.MemStats
	runtime.GC() // as before every timed solve
	runtime.ReadMemStats(&ms0)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	cpu0 := cpuTime()
	root := tr.Start(0, "solve", obs.F("workload", r.spec.name), obs.F("seed", r.seed))
	d, err := r.decompose(raw, tr, root.ID())
	root.End()
	cpu := cpuTime() - cpu0
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return nil, err
	}
	r.attempted++
	if fp := provenance.SolutionFingerprint(d.res.Solution); fp != r.fingerprints[0] {
		r.fail("traced solve: fingerprint %016x differs from the untraced %016x", fp, r.fingerprints[0])
	}

	// Outside the solve: the equilibrium check, and the sharded engine on
	// the same phase-1 state.
	sp = tr.Start(0, "collab.verify")
	if err := collab.VerifyEquilibrium(d.in, d.res.Solution, assign.Sequential); err != nil {
		r.fail("traced solve: not an equilibrium: %v", err)
	}
	sp.End()
	var sharded *shardProbe
	if r.spec.probeShards {
		sp = tr.Start(0, "shard.run_sharded")
		res, rep := collab.RunSharded(d.in, d.phase1, collab.ShardConfig{
			Config: d.ccfg, Shards: core.ShardAuto, Seed: r.cfg.Seed,
		})
		sp.End()
		sharded = &shardProbe{res: res, rep: rep}
		r.attempted++
		if err := collab.VerifyEquilibrium(d.in, res.Solution, assign.Sequential); err != nil {
			r.fail("sharded game: not an equilibrium: %v", err)
		}
	}

	spans := tr.Spans()
	solveS := spanSeconds(spans, "solve")
	m["roadnet.build_s"] = spanSeconds(spans, "roadnet.build")
	m["roadnet.setup_dijkstra_runs"] = float64(r.setupDijkstraRuns)
	m["collab.verify_s"] = spanSeconds(spans, "collab.verify")
	m["shard.phase2_s"] = spanSeconds(spans, "shard.run_sharded")
	layerMetrics(m, d, spans)
	shardMetrics(m, d, sharded)
	self := selfTimes(spans, root.ID())
	for _, layer := range []string{"solve", "voronoi", "roadnet", "assign", "collab"} {
		m[layer+".self_s"] = self[layer]
	}

	m["process.cpu_s"] = cpu.Seconds()
	m["process.parallel_efficiency"] = ratio(cpu.Seconds(), solveS*float64(runtime.GOMAXPROCS(0)))
	m["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	m["runtime.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	m["trace.overhead_ratio"] = ratio(solveS, median(t.firstSolveS)) - 1

	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	for _, layer := range shareLayers {
		m["cpu_share."+layer] = shares[layer]
	}

	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", r.spec.name, r.seed))
	if err := os.WriteFile(base+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	f, err := os.Create(base + ".spans.json")
	if err != nil {
		return nil, err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return nil, err
	}
	return m, f.Close()
}

// shareLayers are the layers whose CPU share the traced run reports.
var shareLayers = []string{"index", "roadnet", "assign", "collab", "voronoi", "runtime"}

// layerMetrics fills the voronoi, roadnet, assign, index and collab metrics
// of one traced solve.
func layerMetrics(m map[string]float64, d *decomposition, spans []obs.SpanInfo) {
	m["voronoi.partition_s"] = spanSeconds(spans, "voronoi.partition")

	b, p1, a := d.before, d.afterPhase1, d.after
	m["roadnet.prepare_metric_s"] = spanSeconds(spans, "roadnet.prepare_metric")
	m["roadnet.center_tables_s"] = spanSeconds(spans, "roadnet.center_tables")
	m["roadnet.dijkstra_runs"] = float64(a.dijkstraRuns - b.dijkstraRuns)
	m["roadnet.dijkstra_busy_s"] = a.dijkstraBusyS - b.dijkstraBusyS
	hits, misses := float64(a.hits-b.hits), float64(a.misses-b.misses)
	m["roadnet.cache_hits"] = hits
	m["roadnet.cache_misses"] = misses
	m["roadnet.hit_ratio"] = ratio(hits, hits+misses)
	m["roadnet.singleflight_waits"] = float64(a.waits - b.waits)

	var st assign.Stats
	for i := range d.phase1 {
		s := d.phase1[i].Stats
		st.TasksScanned += s.TasksScanned
		st.DeadlineRejections += s.DeadlineRejections
		st.RouteExtensions += s.RouteExtensions
	}
	var centerMs []float64
	for _, s := range spans {
		if s.Name == "assign.center" {
			centerMs = append(centerMs, ms(s.Dur))
		}
	}
	m["assign.phase1_s"] = spanSeconds(spans, "assign.phase1")
	m["assign.center_p50_ms"] = median(centerMs)
	m["assign.center_max_ms"] = stats.Quantile(centerMs, 1)
	m["assign.tasks_scanned"] = float64(st.TasksScanned)
	m["assign.deadline_rejections"] = float64(st.DeadlineRejections)
	m["assign.route_extensions"] = float64(st.RouteExtensions)
	m["assign.extension_ratio"] = ratio(float64(st.RouteExtensions), float64(st.TasksScanned))

	var trials, pruned, memo, accepted int
	var iterMs []float64
	for _, step := range d.res.Trace {
		trials += step.Trials
		pruned += step.Pruned
		memo += step.MemoHits
		if step.Accepted {
			accepted++
		}
		iterMs = append(iterMs, ms(step.Duration))
	}
	transfers := len(d.res.Solution.Transfers)
	tail := tailPercentile(len(iterMs))
	m["collab.phase2_s"] = spanSeconds(spans, "collab.phase2")
	m["collab.iterations"] = float64(d.res.Iterations)
	m["collab.transfers"] = float64(transfers)
	m["collab.accept_ratio"] = ratio(float64(accepted), float64(len(d.res.Trace)))
	m["collab.iter_p50_ms"] = median(iterMs)
	m["collab.iter_tail_ms"] = stats.Quantile(iterMs, tail)
	m["collab.iter_tail_pct"] = tail * 100
	m["collab.trials"] = float64(trials)
	m["collab.candidates_pruned"] = float64(pruned)
	m["collab.memo_hits"] = float64(memo)
	m["collab.prune_ratio"] = ratio(float64(pruned), float64(pruned+trials+memo))
	m["collab.trials_per_transfer"] = ratio(float64(trials), float64(transfers))

	m["index.nearest_queries"] = float64(a.scanned - b.scanned)
	m["index.nearest_per_trial"] = ratio(float64(a.scanned-p1.scanned), float64(trials))
}

// shardProbe is the sharded engine's game on the traced solve's phase-1
// state.
type shardProbe struct {
	res collab.Result
	rep collab.ShardReport
}

// shardMetrics fills the shard metrics from the probe p: the sharded
// engine's partition and reconcile work, and the quality it gives up against
// the traced solve's unsharded game on the same phase-1 state. All are 0
// when p is nil.
func shardMetrics(m map[string]float64, d *decomposition, p *shardProbe) {
	var sr collab.ShardReport
	if p != nil {
		sr = p.rep
	}
	var wallMax, wallSum time.Duration
	for _, w := range sr.ShardWall {
		wallMax = max(wallMax, w)
		wallSum += w
	}
	m["shard.count"] = float64(sr.Shards)
	m["shard.load_skew"] = sr.LoadSkew
	m["shard.boundary_workers"] = float64(sr.BoundaryWorkers)
	m["shard.conflict_edges"] = float64(sr.ConflictEdges)
	m["shard.components"] = float64(sr.Components)
	m["shard.wall_max_s"] = wallMax.Seconds()
	m["shard.wall_sum_s"] = wallSum.Seconds()
	m["shard.exchange_iterations"] = float64(sr.ExchangeIterations)
	m["shard.exchange_transfers"] = float64(sr.ExchangeTransfers)

	m["shard.assigned_delta_vs_s1"] = 0
	m["shard.unfairness_ratio_vs_s1"] = 0
	m["shard.phi_delta_vs_s1"] = 0
	if p != nil {
		sharded := metrics.Ratios(d.in, p.res.Solution)
		single := metrics.Ratios(d.in, d.res.Solution)
		m["shard.assigned_delta_vs_s1"] = float64(p.res.Solution.AssignedCount() - d.res.Solution.AssignedCount())
		m["shard.unfairness_ratio_vs_s1"] = ratio(metrics.Unfairness(sharded), metrics.Unfairness(single))
		m["shard.phi_delta_vs_s1"] = metrics.Phi(sharded) - metrics.Phi(single)
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// spanSeconds sums the durations of the spans called name.
func spanSeconds(spans []obs.SpanInfo, name string) float64 {
	var total time.Duration
	for _, s := range spans {
		if s.Name == name {
			total += s.Dur
		}
	}
	return total.Seconds()
}

// selfTimes returns, per layer, the self time of the spans under root (root
// included): each span's duration minus the part of its interval that the
// union of its children covers. A span's layer is its name up to the first
// dot. Concurrent spans of one layer each count in full, so a layer's self
// time can exceed the wall time it ran in.
func selfTimes(spans []obs.SpanInfo, root obs.SpanID) map[string]float64 {
	parent := map[obs.SpanID]obs.SpanID{}
	kids := map[obs.SpanID][]obs.SpanInfo{}
	for _, s := range spans {
		parent[s.ID] = s.Parent
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	under := func(id obs.SpanID) bool {
		for ; id != 0; id = parent[id] {
			if id == root {
				return true
			}
		}
		return false
	}
	out := map[string]float64{}
	for _, s := range spans {
		if !under(s.ID) {
			continue
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += (s.Dur - covered(s, kids[s.ID])).Seconds()
	}
	return out
}

// covered returns the length of parent's interval covered by the union of
// the children's intervals.
func covered(parent obs.SpanInfo, children []obs.SpanInfo) time.Duration {
	type iv struct{ lo, hi time.Time }
	end := parent.Start.Add(parent.Dur)
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := c.Start, c.Start.Add(c.Dur)
		if lo.Before(parent.Start) {
			lo = parent.Start
		}
		if hi.After(end) {
			hi = end
		}
		if hi.After(lo) {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo.Before(ivs[j].lo) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo.After(cur.hi):
			total += cur.hi.Sub(cur.lo)
			cur = v
		case v.hi.After(cur.hi):
			cur.hi = v.hi
		}
	}
	if len(ivs) > 0 {
		total += cur.hi.Sub(cur.lo)
	}
	return total
}
