package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"imtao/internal/obs"
)

// Reduced-size copies of the workloads keep the guards fast; each keeps the
// property its full-size workload was chosen for.
var (
	smallCold = spec{name: "road-cold-10k", tasks: 2_000, rounds: 2, freshNet: true}
	smallWarm = spec{name: "road-warm-20k", tasks: 10_000, rounds: 2, probeShards: true}
)

func setUpRun(t *testing.T, s spec) *run {
	t.Helper()
	r, err := newRun(s, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.setUp(); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestColdSolvesMissTheCache(t *testing.T) {
	r := setUpRun(t, smallCold)
	for i, in := range r.rounds {
		if err := r.attachNetwork(); err != nil {
			t.Fatal(err)
		}
		m0 := ctrCacheMisses.Value()
		if _, err := solve(in, r.cfg); err != nil {
			t.Fatal(err)
		}
		if misses := ctrCacheMisses.Value() - m0; misses == 0 {
			t.Errorf("round %d: cold solve had no cache misses", i)
		}
	}
}

func TestWarmTimedSolvesNeverMiss(t *testing.T) {
	r := setUpRun(t, smallWarm)
	if r.setupDijkstraRuns == 0 {
		t.Fatal("set-up ran no Dijkstra searches")
	}
	m0, runs0 := ctrCacheMisses.Value(), r.net.Stats().DijkstraRuns
	if _, err := r.measure(); err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("failed checks: %v", r.failures)
	}
	if got := ctrCacheMisses.Value() - m0; got != 0 {
		t.Errorf("timed solves missed the cache %d times", got)
	}
	if got := r.net.Stats().DijkstraRuns - runs0; got != 0 {
		t.Errorf("timed solves ran %d Dijkstra searches", got)
	}
	if want := minPasses * len(r.rounds); r.attempted != want {
		t.Errorf("attempted = %d, want %d (%d timed passes)", r.attempted, want, minPasses)
	}
}

// tracedMetrics runs a reduced workload end to end with the traced solve.
func tracedMetrics(t *testing.T, s spec) map[string]float64 {
	t.Helper()
	r := setUpRun(t, s)
	tm, err := r.measure()
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.traced(tm, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("failed checks: %v", r.failures)
	}
	for _, want := range perLayer {
		if _, ok := m[want.name]; !ok {
			t.Errorf("traced run did not report %s", want.name)
		}
	}
	return m
}

func TestTracedColdSolve(t *testing.T) {
	m := tracedMetrics(t, smallCold)
	if m["roadnet.cache_misses"] == 0 || m["roadnet.dijkstra_runs"] == 0 {
		t.Errorf("cold traced solve: misses %v, searches %v", m["roadnet.cache_misses"], m["roadnet.dijkstra_runs"])
	}
	if m["shard.count"] != 0 {
		t.Errorf("cold workload reported shard.count %v", m["shard.count"])
	}
}

func TestTracedWarmSolve(t *testing.T) {
	m := tracedMetrics(t, smallWarm)
	if m["roadnet.cache_misses"] != 0 || m["roadnet.dijkstra_runs"] != 0 {
		t.Errorf("warm traced solve: misses %v, searches %v", m["roadnet.cache_misses"], m["roadnet.dijkstra_runs"])
	}
	if m["shard.count"] <= 1 {
		t.Errorf("shard probe ran %v shards, want more than one", m["shard.count"])
	}
	if m["index.nearest_queries"] == 0 || m["collab.trials"] == 0 {
		t.Errorf("no game work: nearest queries %v, trials %v", m["index.nearest_queries"], m["collab.trials"])
	}
}

func TestMedianIsNearestRank(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{4, 1}, 1},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 3, 2, 1}, 2},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0.5}, {19, 0.5}, {20, 0.5}, {40, 0.75}, {100, 0.9},
		{199, 0.9}, {200, 0.95}, {1000, 0.99}, {10000, 0.999},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	for n := 20; n <= 5000; n++ {
		if beyond := n - nearestRank(n, tailPercentile(n)); beyond < 10 {
			t.Fatalf("n=%d: only %d samples beyond the tail", n, beyond)
		}
	}
}

func TestRatio(t *testing.T) {
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v", got)
	}
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio(3, 0) = %v, want 0", got)
	}
}

type spanRecord struct {
	id, parent obs.SpanID
	name       string
	start      time.Time
	ms         int
}

func toSpans(rs []spanRecord) []obs.SpanInfo {
	out := make([]obs.SpanInfo, len(rs))
	for i, r := range rs {
		out[i] = obs.SpanInfo{ID: r.id, Parent: r.parent, Name: r.name,
			Start: r.start, Dur: time.Duration(r.ms) * time.Millisecond}
	}
	return out
}

func TestSelfTimesSubtractChildUnion(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []spanRecord{
		{1, 0, "solve", at(0), 100},
		{2, 1, "assign.phase1", at(10), 50},
		{3, 2, "assign.center", at(10), 30}, // overlaps its sibling
		{4, 2, "assign.center", at(20), 30},
		{5, 1, "collab.phase2", at(60), 40},
		{6, 0, "collab.verify", at(100), 10}, // outside the root
	}
	got := selfTimes(toSpans(spans), 1)
	want := map[string]float64{
		"solve":  0.010, // 100 − 50 − 40
		"assign": 0.070, // phase1 10 + centers 30 + 30
		"collab": 0.040,
	}
	for layer, w := range want {
		if math.Abs(got[layer]-w) > 1e-9 {
			t.Errorf("self time of %s = %v, want %v", layer, got[layer], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("layers = %v, want %v", got, want)
	}
}

func TestFuncLayer(t *testing.T) {
	for fn, want := range map[string]string{
		"imtao/internal/index.(*Grid).Nearest":      "index",
		"imtao/internal/roadnet.(*Network).dial":    "roadnet",
		"imtao/internal/collab.(*Game).Step.func1":  "collab",
		"imtao/internal/slab.(*Arena[...]).Alloc":   "slab",
		"runtime.mallocgc":                          "runtime",
		"internal/runtime/maps.(*Map).getWithKey":   "runtime",
		"sync/atomic.(*Int64).Add":                  "other",
		"main.main":                                 "other",
		"imtao/internal/assign.serveWorker":         "assign",
		"imtao/internal/voronoi.(*Diagram).Nearest": "voronoi",
	} {
		if got := funcLayer(fn); got != want {
			t.Errorf("funcLayer(%q) = %q, want %q", fn, got, want)
		}
	}
}

// pb builds protocol-buffer messages for the profile decoder test.
type pb []byte

func (b pb) varint(v uint64) pb {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func (b pb) uint(field int, v uint64) pb { return b.varint(uint64(field<<3 | wireVarint)).varint(v) }

func (b pb) bytes(field int, p []byte) pb {
	return append(b.varint(uint64(field<<3|wireBytes)).varint(uint64(len(p))), p...)
}

func TestCPUSharesDecodeProfile(t *testing.T) {
	var p pb
	for _, s := range []string{"", "samples", "count", "cpu", "nanoseconds",
		"imtao/internal/index.(*Grid).Nearest", "runtime.mallocgc", "imtao/internal/collab.(*Game).Step"} {
		p = p.bytes(profStringTable, []byte(s))
	}
	p = p.bytes(profSampleType, pb{}.uint(valueTypeType, 1).uint(2, 2))
	p = p.bytes(profSampleType, pb{}.uint(valueTypeType, 3).uint(2, 4))
	for id, name := range []uint64{5, 6, 7} {
		p = p.bytes(profFunction, pb{}.uint(functionID, uint64(id+1)).uint(functionName, name))
	}
	// Location 1 inlines Nearest into Step: the leaf is the first line.
	p = p.bytes(profLocation, pb{}.uint(locationID, 1).
		bytes(locationLine, pb{}.uint(lineFunction, 1)).
		bytes(locationLine, pb{}.uint(lineFunction, 3)))
	p = p.bytes(profLocation, pb{}.uint(locationID, 2).bytes(locationLine, pb{}.uint(lineFunction, 2)))
	p = p.bytes(profLocation, pb{}.uint(locationID, 3).bytes(locationLine, pb{}.uint(lineFunction, 3)))
	// Packed location and value lists, leaf first; one sample unpacked.
	p = p.bytes(profSample, pb{}.bytes(sampleLocation, pb{}.varint(1).varint(3)).
		bytes(sampleValue, pb{}.varint(6).varint(60)))
	p = p.bytes(profSample, pb{}.bytes(sampleLocation, pb{}.varint(2).varint(3)).
		bytes(sampleValue, pb{}.varint(3).varint(30)))
	p = p.bytes(profSample, pb{}.uint(sampleLocation, 3).uint(sampleValue, 1).uint(sampleValue, 10))

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	zw.Close()
	shares, err := cpuShares(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"index": 0.6, "runtime": 0.3, "collab": 0.1}
	for layer, w := range want {
		if math.Abs(shares[layer]-w) > 1e-12 {
			t.Errorf("share of %s = %v, want %v", layer, shares[layer], w)
		}
	}
	if _, err := cpuShares(gz.Bytes()[:len(gz.Bytes())/2]); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json, which the harness reads,
// in step with the workloads and metrics this program runs and prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, specs[i].name)
		}
	}
	compare := func(kind string, listed []entry, code []metric) {
		if len(listed) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(listed), len(code))
			return
		}
		for i, e := range listed {
			if c := code[i]; e != (entry{c.name, c.unit, c.better}) {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, e, c)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, endToEnd)
	compare("per_layer", b.PerLayer, perLayer)
	for _, m := range perLayer {
		if m.moves == "" {
			t.Errorf("%s predicts no end-to-end effect", m.name)
		}
	}
}
