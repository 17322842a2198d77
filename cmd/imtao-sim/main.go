// Command imtao-sim runs a single CMCTA scenario end to end and prints a
// detailed report: per-center statistics after each phase, the workforce
// transfers of the collaboration game, and the final metrics.
//
// Usage:
//
//	imtao-sim -dataset syn -tasks 400 -workers 100 -centers 20 -method Seq-BDC
//	imtao-sim -load scene.json -method Seq-BDC   # instance from imtao-datagen
//	imtao-sim -dataset gm -trace                 # print every game iteration
//	imtao-sim -listen :8080                      # serve /metrics + /debug/pprof, stay up
//	imtao-sim -trace-out run.jsonl               # stream telemetry events to a file
//	imtao-sim -trace-out run.trace.json          # record a span timeline for ui.perfetto.dev
//	imtao-sim -flight 4096 -listen :8080         # keep the last 4096 events at /debug/flightrecorder
//	imtao-sim -provenance-out run.prov.jsonl     # record the decision ledger for imtao-explain
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"imtao"
	"imtao/internal/render"
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
		seed    = flag.Int64("seed", 1, "generator / RBDC seed")
		method  = flag.String("method", "Seq-BDC", "method, e.g. Seq-BDC, Opt-w/o-C")
		budget  = flag.Duration("opt-budget", time.Second, "per-center budget for Opt methods")
		load    = flag.String("load", "", "load an instance JSON file instead of generating")
		save    = flag.String("save", "", "write the final solution to a JSON file")
		svg     = flag.String("svg", "", "render the solution (cells, routes, transfers) to an SVG file")
		trace   = flag.Bool("trace", false, "print every collaboration game iteration")

		provOut = flag.String("provenance-out", "", "record the assignment decision ledger (phase-1 scans, every game iteration with its trials, final routes, equilibrium certificate) to this JSONL file — query it with imtao-explain")

		listen     = flag.String("listen", "", "serve /metrics, /healthz and /debug/pprof on this address (e.g. :8080) and keep running after the report")
		traceOut   = flag.String("trace-out", "", "record run telemetry to this file: a .jsonl path streams events as JSON Lines, any other path writes a Chrome/Perfetto span timeline after the run")
		flight     = flag.Int("flight", 0, "retain the last N telemetry events in a flight recorder (0 disables); dumped on panic, on SIGQUIT, and at /debug/flightrecorder under -listen")
		flightDump = flag.String("flight-dump", "", "also dump the flight recorder to this file at exit (default: stderr, and only on panic or SIGQUIT)")

		sampleEvery  = flag.Duration("runtime-sample", 0, "sample Go runtime vitals (GC pause, heap, goroutines) at this interval into /metrics and the event stream; 0 uses the default under -listen, negative disables")
		profileDir   = flag.String("profile-dir", "", "continuously capture CPU+heap pprof profiles into this directory (a bounded ring; see -profile-keep)")
		profileEvery = flag.Duration("profile-interval", time.Minute, "continuous-profile capture period under -profile-dir")
		profileKeep  = flag.Int("profile-keep", 0, "profiles of each kind retained under -profile-dir (0 selects the default)")
	)
	flag.Parse()
	setSimState("starting")

	// The method and the instance are settled before anything is printed or
	// started, so a bad flag or a malformed -load file fails without partial
	// output.
	m, err := imtao.ParseMethod(*method)
	if err != nil {
		fatal(err)
	}

	var raw *imtao.Instance
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			fatal(err)
		}
		raw, err = workload.ReadJSON(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		if err := raw.Validate(); err != nil {
			fatal(err)
		}
	} else {
		d, err := workload.ParseDataset(*dataset)
		if err != nil {
			fatal(err)
		}
		p := imtao.DefaultParams(d)
		p.NumTasks, p.NumWorkers, p.NumCenters = *tasks, *workers, *centers
		p.Expiry, p.MaxT, p.Seed = *expiry, *maxT, *seed
		raw, err = imtao.Generate(p)
		if err != nil {
			fatal(err)
		}
	}

	var recorder *imtao.FlightRecorder
	if *flight > 0 {
		recorder = imtao.NewFlightRecorder(*flight)
	}

	var profiles *imtao.ProfileRing
	if *profileDir != "" {
		var err error
		profiles, err = imtao.NewProfileRing(*profileDir, *profileEvery, *profileKeep)
		if err != nil {
			fatal(err)
		}
		profiles.Start()
		defer profiles.Stop()
		fmt.Printf("continuous profiling: CPU+heap ring in %s every %s\n", *profileDir, *profileEvery)
	}

	if recorder != nil || profiles != nil {
		watchSIGQUIT(recorder, *flightDump, profiles)
		defer func() {
			if r := recover(); r != nil {
				dumpFlight(recorder, *flightDump, "panic")
				dumpProfiles(profiles, "panic")
				panic(r)
			}
			if recorder != nil && *flightDump != "" {
				dumpFlight(recorder, *flightDump, "exit")
			}
		}()
	}

	// The JSONL event stream opens before the sampler so runtime_sample
	// events interleave with the run's own telemetry in one file.
	var jsonl imtao.Observer
	if *traceOut != "" && strings.HasSuffix(*traceOut, ".jsonl") {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		jsonl = imtao.NewJSONLObserver(f)
	}

	// Runtime vitals: on by default while serving diagnostics (that is what
	// -listen opts into), opt-in otherwise, -runtime-sample <0 disables.
	var sampler *imtao.RuntimeSampler
	if *sampleEvery > 0 || (*sampleEvery == 0 && *listen != "") {
		var vitalsOut []imtao.Observer
		if recorder != nil {
			vitalsOut = append(vitalsOut, recorder)
		}
		if jsonl != nil {
			vitalsOut = append(vitalsOut, jsonl)
		}
		sampler = imtao.NewRuntimeSampler(*sampleEvery, imtao.MultiObserver(vitalsOut...))
		sampler.Start()
		defer sampler.Stop()
	}

	if *listen != "" {
		addr, err := serveObs(*listen, recorder, sampler)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("diagnostics: http://%s/metrics and http://%s/debug/pprof/\n\n", addr, addr)
	}

	in, err := imtao.Partition(raw)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("instance: %d centers, %d workers, %d tasks, speed %.0f units/h\n",
		len(in.Centers), len(in.Workers), len(in.Tasks), in.Speed)
	fmt.Println("\nper-center load after Voronoi partition:")
	fmt.Printf("  %-8s %-8s %-8s\n", "center", "tasks", "workers")
	for _, c := range in.Centers {
		fmt.Printf("  %-8d %-8d %-8d\n", c.ID, len(c.Tasks), len(c.Workers))
	}

	opts := []imtao.RunOption{imtao.WithSeed(*seed), imtao.WithOptBudget(*budget)}
	var observers []imtao.Observer
	if recorder != nil {
		observers = append(observers, recorder)
	}
	if jsonl != nil {
		observers = append(observers, jsonl)
	}
	var tracer *imtao.Tracer
	if *traceOut != "" && !strings.HasSuffix(*traceOut, ".jsonl") {
		tracer = imtao.NewTracer(0)
		opts = append(opts, imtao.WithTracer(tracer))
	}
	if len(observers) > 0 {
		opts = append(opts, imtao.WithObserver(imtao.MultiObserver(observers...)))
	}
	var ledger *imtao.Ledger
	if *provOut != "" {
		ledger = imtao.NewLedger()
		opts = append(opts, imtao.WithProvenance(ledger))
	}
	setSimState("running")
	rep, err := imtao.Run(in, m, opts...)
	if err != nil {
		fatal(err)
	}
	setSimState("serving")
	if tracer != nil {
		if err := writeChromeTrace(*traceOut, tracer); err != nil {
			fatal(err)
		}
		fmt.Printf("span timeline (%d spans) written to %s — open in ui.perfetto.dev\n",
			tracer.Len(), *traceOut)
	} else if *traceOut != "" {
		fmt.Printf("telemetry trace streaming to %s\n", *traceOut)
	}
	if ledger != nil {
		f, err := os.Create(*provOut)
		if err != nil {
			fatal(err)
		}
		n, err := ledger.WriteTo(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("provenance ledger (%d game iterations, %d trials, %d bytes) written to %s — query with imtao-explain\n",
			ledger.IterCount(), ledger.TrialCount(), n, *provOut)
	}

	fmt.Printf("\nphase 1 (center-independent %s): assigned %d/%d, U_rho %.4f, %s\n",
		m.Assigner, rep.Phase1Assigned, len(in.Tasks), rep.Phase1Unfairness, rep.Phase1Time)
	fmt.Printf("phase 2 (%s): %d game iterations, %d transfers, %s\n",
		m.Collab, rep.Iterations, rep.Transfers, rep.Phase2Time)

	if *trace {
		fmt.Println("\ngame iterations:")
		fmt.Printf("  %-5s %-9s %-7s %-7s %-9s %-9s %-9s %-9s\n",
			"iter", "recipient", "worker", "from", "accepted", "rho", "assigned", "U_rho")
		for _, s := range rep.Trace {
			fmt.Printf("  %-5d %-9d %-7d %-7d %-9v %.3f→%.3f %-9d %-9.4f\n",
				s.Iteration, s.Recipient, s.Worker, s.Source, s.Accepted,
				s.RhoBefore, s.RhoAfter, s.Assigned, s.Unfairness)
		}
	}

	if len(rep.Solution.Transfers) > 0 {
		fmt.Println("\nworkforce transfers:")
		for _, t := range rep.Solution.Transfers {
			fmt.Printf("  worker %d: center %d → center %d\n", t.Worker, t.Src, t.Dst)
		}
	}

	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			fatal(err)
		}
		if err := workload.WriteSolutionJSON(f, rep.Solution); err != nil {
			f.Close()
			fatal(err)
		}
		f.Close()
		fmt.Printf("\nsolution written to %s\n", *save)
	}

	fmt.Printf("\nfinal: assigned %d/%d (%.1f%%), unfairness U_rho %.4f\n",
		rep.Assigned, len(in.Tasks), 100*float64(rep.Assigned)/float64(len(in.Tasks)),
		rep.Unfairness)
	fmt.Println("\nper-center assignment ratios:")
	for ci, r := range rep.Ratios {
		fmt.Printf("  center %-3d rho = %.3f\n", ci, r)
	}

	if *svg != "" {
		f, err := os.Create(*svg)
		if err != nil {
			fatal(err)
		}
		err = render.Instance(f, in, rep.Solution, render.Options{
			ShowCells: true, ShowRoutes: true, ShowTransfers: true,
		})
		f.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nSVG written to %s\n", *svg)
	}

	u := imtao.ComputeUtilization(in, rep.Solution)
	fmt.Printf("\nworkforce utilization: %d/%d workers active, %d dispatched\n",
		u.Active, u.Workers, u.Dispatched)
	fmt.Printf("  %.2f tasks per active worker, capacity used %.0f%%\n",
		u.TasksPerActive, 100*u.CapacityUsed)
	fmt.Printf("  mean route %.2fh, longest route %.2fh\n", u.MeanRouteHours, u.MaxRouteHours)

	if *listen != "" {
		fmt.Printf("\nrun complete; still serving on %s — Ctrl-C to exit\n", *listen)
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		<-ch
	}
}

// writeChromeTrace exports the recorded span timeline as Chrome trace-event
// JSON, openable in ui.perfetto.dev or chrome://tracing.
func writeChromeTrace(path string, tr *imtao.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// watchSIGQUIT dumps the flight recorder — and, when continuous profiling
// is on, an out-of-cycle heap profile — whenever the process receives
// SIGQUIT (^\), the conventional "what are you doing right now" signal,
// without exiting.
func watchSIGQUIT(rec *imtao.FlightRecorder, path string, profiles *imtao.ProfileRing) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGQUIT)
	go func() {
		for range ch {
			dumpFlight(rec, path, "SIGQUIT")
			dumpProfiles(profiles, "sigquit")
		}
	}()
}

// dumpProfiles writes a crash heap profile next to the ring captures; the
// reason-named file is exempt from pruning, so it survives however long the
// process keeps running afterwards.
func dumpProfiles(profiles *imtao.ProfileRing, why string) {
	if profiles == nil {
		return
	}
	if path, err := profiles.DumpNow(why); err != nil {
		fmt.Fprintln(os.Stderr, "imtao-sim: profile dump:", err)
	} else {
		fmt.Fprintf(os.Stderr, "imtao-sim: heap profile (%s) written to %s\n", why, path)
	}
}

// dumpFlight writes the recorder's retained events as JSON Lines to path,
// or to stderr when path is empty, tagged with why (panic/SIGQUIT/exit).
func dumpFlight(rec *imtao.FlightRecorder, path, why string) {
	if rec == nil {
		return
	}
	if path == "" {
		fmt.Fprintf(os.Stderr, "imtao-sim: flight recorder dump (%s): last %d of %d events\n",
			why, rec.Len(), rec.Total())
		rec.WriteTo(os.Stderr)
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "imtao-sim: flight dump:", err)
		return
	}
	if _, err := rec.WriteTo(f); err != nil {
		fmt.Fprintln(os.Stderr, "imtao-sim: flight dump:", err)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "imtao-sim: flight dump:", err)
		return
	}
	fmt.Fprintf(os.Stderr, "imtao-sim: flight recorder dump (%s): last %d of %d events written to %s\n",
		why, rec.Len(), rec.Total(), path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "imtao-sim:", err)
	os.Exit(1)
}
