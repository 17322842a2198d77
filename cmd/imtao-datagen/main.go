// Command imtao-datagen generates CMCTA datasets (paper §VI-A) and writes
// them as JSON for later runs with imtao-sim -load.
//
// Usage:
//
//	imtao-datagen -dataset gm  -out gm.json
//	imtao-datagen -dataset syn -tasks 800 -out syn800.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"imtao"
	"imtao/internal/workload"
)

func main() {
	var (
		dataset = flag.String("dataset", "syn", "dataset generator: gm or syn")
		tasks   = flag.Int("tasks", 400, "number of tasks |S|")
		workers = flag.Int("workers", 100, "number of workers |W|")
		centers = flag.Int("centers", 20, "number of centers |C|")
		expiry  = flag.Float64("expiry", 1.0, "task expiration time e in hours")
		maxT    = flag.Int("maxt", 4, "worker capacity maxT")
		seed    = flag.Int64("seed", 1, "generator seed")
		preset  = flag.String("preset", "", "preset instead of explicit counts: corridor, twincities, ringroad, hotspot, or a scale point like scale10k / scale100k / scale1m")
		out     = flag.String("out", "", "output file (default stdout)")
	)
	flag.Parse()

	d, err := workload.ParseDataset(*dataset)
	if err != nil {
		fatal(err)
	}
	p := imtao.DefaultParams(d)
	p.NumTasks, p.NumWorkers, p.NumCenters = *tasks, *workers, *centers
	p.Expiry, p.MaxT, p.Seed = *expiry, *maxT, *seed
	var in *imtao.Instance
	switch {
	case strings.HasPrefix(*preset, "scale"):
		// Scale presets (scale10k, scale100k, scale1m, or any scale<N>[k|m])
		// override the entity counts with the benchmark's density ratios;
		// dataset, expiry, capacity and seed flags still apply. scale1m is
		// 1M tasks / 250k workers / 5000 centers: expect ~0.7 GB peak
		// resident while generating and ~134 MB of JSON output (README
		// "Scaling up" documents the full footprint).
		n, serr := workload.ParseScaleSize(strings.TrimPrefix(*preset, "scale"))
		if serr != nil {
			fatal(serr)
		}
		sp := workload.ScaleParams(d, n)
		p.NumTasks, p.NumWorkers, p.NumCenters = sp.NumTasks, sp.NumWorkers, sp.NumCenters
		in, err = imtao.Generate(p)
	case *preset != "":
		var pr workload.Preset
		switch *preset {
		case "corridor":
			pr = workload.Corridor
		case "twincities":
			pr = workload.TwinCities
		case "ringroad":
			pr = workload.RingRoad
		case "hotspot":
			pr = workload.Hotspot
		default:
			fatal(fmt.Errorf("unknown preset %q", *preset))
		}
		in, err = workload.GeneratePreset(pr, p)
	default:
		in, err = imtao.Generate(p)
	}
	if err != nil {
		fatal(err)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := workload.WriteJSON(w, in); err != nil {
		fatal(err)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "wrote %s: %d centers, %d workers, %d tasks\n",
			*out, len(in.Centers), len(in.Workers), len(in.Tasks))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "imtao-datagen:", err)
	os.Exit(1)
}
