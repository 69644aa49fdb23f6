package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"distcolor"
	"distcolor/internal/core"
	"distcolor/internal/graph"
	"distcolor/internal/local"
	"distcolor/internal/serve/runcfg"
)

// inprocWorkload is a closed loop with one caller in the benchmark's own
// process: each job is one distcolor.Run on one of a few seeded graphs,
// with a distinct seed (node-ID shuffle) per job.
type inprocWorkload struct {
	name   string
	gen    string // generator spec, as runcfg.Generate takes it
	graphs int    // distinct graphs per run; job i runs on graph i mod graphs
	algo   string
	params map[string]float64
	tailP  int // job_s.tail's percentile
	// coreRun, when set, re-runs each traced job through core directly, for
	// the per-iteration statistics (core.Result.Iterations) that
	// distcolor.Run does not return.
	coreRun func(context.Context, *local.Network) (*core.Result, error)
}

var sparseRegular = inprocWorkload{
	name:   "sparse-regular",
	gen:    "regular:100000,3",
	graphs: 4,
	algo:   "sparse",
	params: map[string]float64{"d": 3},
	tailP:  75,
	coreRun: func(ctx context.Context, nw *local.Network) (*core.Result, error) {
		return core.Run(ctx, nw, core.Config{D: 3})
	},
}

var lubyApollonian = inprocWorkload{
	name: "luby-apollonian",
	gen:  "apollonian:100000",
	// Luby's cost follows the graph's hub degree (every node holds a
	// (Δ+1)-color palette), which varies widely between seeds: the same
	// two seeds, run twice each on a 2-vCPU VM, kept a 14% gap in
	// job_s.p50. Twelve graphs average most of that out of one run's median.
	graphs: 12,
	algo:   "luby",
	tailP:  75,
}

// inprocJob is one entry of a run's job list.
type inprocJob struct {
	graph int
	seed  uint64
}

// job returns entry i of the job list of a run with the given seed.
func (w inprocWorkload) job(seed uint64, i int) inprocJob {
	return inprocJob{graph: i % w.graphs, seed: derive(seed, w.name+"/job", i)}
}

// traced reports whether a traced run traces job i. Jobs go in blocks of
// one job per graph, traced and untraced blocks alternating, so every graph
// gets traced and untraced jobs and trace.overhead_s compares like inputs.
func (w inprocWorkload) traced(i int) bool {
	return (i/w.graphs)%2 == 1
}

// generate builds the run's graphs.
func (w inprocWorkload) generate(seed uint64) ([]*graph.Graph, error) {
	gs := make([]*graph.Graph, w.graphs)
	for k := range gs {
		g, err := runcfg.Generate(w.gen, derive(seed, w.name+"/graph", k))
		if err != nil {
			return nil, fmt.Errorf("generating %s: %w", w.gen, err)
		}
		gs[k] = g
	}
	return gs, nil
}

// options are the Run options of a job with the given seed.
func (w inprocWorkload) options(seed uint64) []distcolor.Option {
	opts := []distcolor.Option{distcolor.WithSeed(seed)}
	for name, v := range w.params {
		opts = append(opts, distcolor.WithParam(name, v))
	}
	return opts
}

// inprocState is what one run accumulates.
type inprocState struct {
	graphs   []*graph.Graph
	bounds   []int
	jobS     []float64 // every verified job's wall time
	rounds   []float64
	tracedS  []float64 // traced jobs only
	plainS   []float64 // untraced jobs of a traced run
	perJob   map[string][]float64
	happy    float64 // Σ happy over every peeling iteration of traced jobs
	alive    float64 // Σ alive over the same iterations
	accounts []float64
}

func (w inprocWorkload) run(ctx context.Context, rc runConfig) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	st := &inprocState{perJob: map[string][]float64{}}
	su := &setupTimer{reset: func() { st.graphs, st.bounds = nil, nil }}
	su.setup = func() error {
		gs, err := w.generate(rc.seed)
		if err != nil {
			return err
		}
		bounds := make([]int, len(gs))
		for k, g := range gs {
			if bounds[k], err = paletteBound(w.algo, g, w.params); err != nil {
				return err
			}
		}
		// Warm-up: one job on a seed outside the measured job list.
		col, err := distcolor.Run(ctx, gs[0], w.algo, w.options(derive(rc.seed, w.name+"/warmup", 0))...)
		if err != nil {
			return fmt.Errorf("warm-up job: %w", err)
		}
		if err := checkColors(gs[0], col.Colors, col.Lists, bounds[0]); err != nil {
			return fmt.Errorf("warm-up job: %w", err)
		}
		st.graphs, st.bounds = gs, bounds
		return nil
	}
	if err := su.run(setupReps / 2); err != nil {
		return nil, err
	}
	if rc.traced {
		o.spans = &spanLog{}
	}

	steal, err := startSteal()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for i := 0; !rc.done(start, i, len(st.jobS), minSamples(w.tailP)); i++ {
		o.attempted++
		job := w.job(rc.seed, i)
		g := st.graphs[job.graph]
		var col *distcolor.Coloring
		var secs float64
		if rc.traced && w.traced(i) {
			col, secs, err = w.tracedJob(ctx, g, job, i, o.spans, st)
		} else {
			t0 := time.Now()
			col, err = distcolor.Run(ctx, g, w.algo, w.options(job.seed)...)
			secs = time.Since(t0).Seconds()
			if rc.traced {
				st.plainS = append(st.plainS, secs)
			}
		}
		if err != nil {
			o.fail("job %d (graph %d, seed %d): %v", i, job.graph, job.seed, err)
			continue
		}
		if err := checkColors(g, col.Colors, col.Lists, st.bounds[job.graph]); err != nil {
			o.fail("job %d (graph %d, seed %d): %v", i, job.graph, job.seed, err)
			continue
		}
		st.jobS = append(st.jobS, secs)
		st.rounds = append(st.rounds, float64(col.Rounds))
	}
	wall := time.Since(start).Seconds()
	rc.checkTail(o, len(st.jobS), w.tailP)

	m := o.metrics
	if m["host.steal_ratio"], err = steal.ratio(); err != nil {
		return nil, err
	}
	m["job_s.p50"] = median(st.jobS)
	m["job_s.tail"], m["job_s.tail_percentile"] = tail(st.jobS, w.tailP), float64(w.tailP)
	m["job_s.q1"], _, m["job_s.q3"] = quartiles(st.jobS)
	m["jobs_per_s"] = ratio(float64(len(st.jobS)), wall)
	m["rounds.mean"] = mean(st.rounds)
	if m["rss_peak_mb"], err = peakRSSMiB("self"); err != nil {
		return nil, err
	}
	if rc.traced {
		for name, xs := range st.perJob {
			m[name] = median(xs)
		}
		m["core.happy_ratio"] = ratio(st.happy, st.alive)
		m["local.msgs_per_s"] = ratio(m["local.messages"], m["local.run_s"])
		m["trace.overhead_s"] = median(st.tracedS) - median(st.plainS)
		m["layers.accounted_ratio"] = median(st.accounts)
	}
	// The other half of the set-ups, after the window (see setupReps).
	if err := su.run(setupReps - setupReps/2); err != nil {
		return nil, err
	}
	m["setup_s"] = su.median()
	return o, nil
}

// tracedJob runs job i with the progress and trace hooks attached, turning
// its ledger charges into layer spans, and records its per-layer values.
func (w inprocWorkload) tracedJob(ctx context.Context, g *graph.Graph, job inprocJob, i int,
	spans *spanLog, st *inprocState) (*distcolor.Coloring, float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rt := &distcolor.RoundTrace{}
	t0 := time.Now()
	pt := newPhaseTimer(spans, 1, fmt.Sprintf("job %d", i), t0)
	opts := append(w.options(job.seed),
		distcolor.WithTrace(rt),
		distcolor.WithProgress(func(e distcolor.PhaseEvent) { pt.mark(e.Phase, time.Now()) }))
	col, err := distcolor.Run(ctx, g, w.algo, opts...)
	end := time.Now()
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, 0, err
	}
	pt.finish(end)
	secs := end.Sub(t0).Seconds()
	st.tracedS = append(st.tracedS, secs)

	layers := map[string]float64{}
	for phase, s := range pt.byPh {
		if name := layerOf(phase); name != "" {
			layers[name] += s
		}
	}
	rep := rt.Report(w.algo)
	for _, p := range rep.Phases {
		if p.EngineRounds > 0 {
			layers["local.run_s"] += pt.byPh[p.Phase]
		}
	}
	accounted := 0.0
	for _, name := range layerTimes {
		st.perJob[name] = append(st.perJob[name], layers[name])
		accounted += layers[name]
	}
	st.accounts = append(st.accounts, accounted/secs)
	st.perJob["local.messages"] = append(st.perJob["local.messages"], float64(rep.Messages))
	st.perJob["local.shard_imbalance"] = append(st.perJob["local.shard_imbalance"], rep.ShardImbalance)
	st.perJob["gc.alloc_mb_per_job"] = append(st.perJob["gc.alloc_mb_per_job"],
		float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	st.perJob["gc.cycles_per_job"] = append(st.perJob["gc.cycles_per_job"], float64(after.NumGC-before.NumGC))

	if w.coreRun != nil {
		res, err := w.coreRun(ctx, local.NewShuffledNetwork(g, rand.New(rand.NewPCG(job.seed, idStream))))
		if err != nil {
			return nil, 0, fmt.Errorf("core.Run: %w", err)
		}
		if v := equalColors(res.Colors, col.Colors); v >= 0 {
			return nil, 0, fmt.Errorf("core.Run and distcolor.Run disagree at vertex %d", v)
		}
		st.addIterations(res.Iterations)
	}
	return col, secs, nil
}

// addIterations records one job's peeling statistics (Lemma 3.1 yield,
// Lemma 3.2 root balls and forest depth).
func (st *inprocState) addIterations(its []core.IterationStats) {
	roots, depth := 0, 0
	for _, it := range its {
		st.happy += float64(it.Happy)
		st.alive += float64(it.Alive)
		roots += it.RootBalls
		depth = max(depth, it.MaxDepth)
	}
	st.perJob["core.iterations"] = append(st.perJob["core.iterations"], float64(len(its)))
	st.perJob["core.root_balls"] = append(st.perJob["core.root_balls"], float64(roots))
	st.perJob["ruling.max_depth"] = append(st.perJob["ruling.max_depth"], float64(depth))
}
