package main

import (
	"fmt"
	"math/rand"

	"imtao/internal/core"
	"imtao/internal/model"
	"imtao/internal/roadnet"
	"imtao/internal/workload"
)

// roadGrid is the node count per axis of the road network.
const roadGrid = 64

// citySeed fixes where the centers stand: a workload is one city, and the
// run's seed draws the tasks and workers of its dispatch rounds.
const citySeed = 1

// spec is one benchmark workload: SYN dispatch rounds at one size, solved
// with Seq-BDC, the paper's proposed method, on a roadGrid² road network.
type spec struct {
	name  string
	tasks int
	// rounds is the number of dispatch rounds a run generates and solves.
	// The rounds differ in their demand, so a run's figures average over
	// inputs rather than resting on one draw.
	rounds int
	// freshNet builds a new network before every solve (cold oracle).
	// Otherwise one network serves the whole run, and set-up fills every
	// table it can serve (run.setUp).
	freshNet bool
	// probeShards makes the traced run also play the sharded engine
	// (core.ShardAuto) on the traced round's phase-1 state.
	probeShards bool
}

var specs = []spec{
	{name: "road-cold-10k", tasks: 10_000, rounds: 48, freshNet: true},
	{name: "road-warm-20k", tasks: 20_000, rounds: 32, probeShards: true},
}

func findSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// generate builds the run's rounds at the workload.ScaleParams point for the
// task count: one worker per four tasks and one center per 200 tasks. The
// centers of every round come from citySeed; the tasks and workers of round
// i from the i-th draw of a generator seeded with seed.
func (s spec) generate(seed int64) ([]*model.Instance, error) {
	gen := func(seed int64) (*model.Instance, error) {
		p := workload.ScaleParams(workload.SYN, s.tasks)
		p.Seed = seed
		return workload.Generate(p)
	}
	city, err := gen(citySeed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	rounds := make([]*model.Instance, s.rounds)
	for i := range rounds {
		in, err := gen(rng.Int63())
		if err != nil {
			return nil, err
		}
		in.Centers = city.Centers
		rounds[i] = in
	}
	return rounds, nil
}

// config is the pipeline configuration of every solve.
func config(seed int64) core.Config {
	return core.Config{
		Method: core.Method{Assigner: core.Seq, Collab: core.BDC},
		Seed:   seed,
	}
}

// newNetwork builds the road network over the instance's bounds, with the
// cache sized to the node count so every source stays resident and no table
// is searched twice.
func newNetwork(in *model.Instance) (*roadnet.Network, error) {
	net, err := roadnet.New(in.Bounds, roadGrid, roadGrid, in.Speed)
	if err != nil {
		return nil, err
	}
	net.SetCacheCapacity(net.Nodes())
	return net, nil
}
