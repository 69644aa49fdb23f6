// Command perfbench is the repository benchmark. It runs one named workload
// for a fixed wall-clock budget, checks every coloring it gets back, and
// prints as its last line one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}
//
// With -trace 0 the metrics are the end-to-end ones (tracing off); with
// -trace 1 they are the per-layer ones, taken from the benchmark's own spans
// around the public surface of each layer, and the spans are written to a
// Chrome trace-event file that Perfetto loads.
//
// The usual entry point is run.py, which builds this program and the
// server from the checkout and then execs it:
//
//	python3 perfbench/run.py --workload sparse-regular --seed 1 --seconds 30 --trace 0
//
// Every input is generated from -seed: the same seed gives the same graphs
// and the same job list. The exit code is non-zero when any output fails
// its check.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics a user of the system sees, reported with -trace 0.
var endToEnd = []metricDef{
	{"job_s.p50", "s"},
	{"job_s.tail", "s"},
	{"jobs_per_s", "1/s"},
	{"rounds.mean", "rounds"},
	{"rss_peak_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayer are the single-layer metrics, reported with -trace 1. A layer a
// workload bypasses reports 0 (see README.md for which workload drives
// which layer).
var perLayer = []metricDef{
	{"core.happy_s", "s"},
	{"core.layered_s", "s"},
	{"core.iterations", "count"},
	{"core.happy_ratio", "ratio"},
	{"core.root_balls", "count"},
	{"ruling.forest_s", "s"},
	{"ruling.max_depth", "count"},
	{"reduce.schedule_s", "s"},
	{"seqcolor.rootballs_s", "s"},
	{"seqcolor.verify_s", "s"},
	{"gc.alloc_mb_per_job", "MiB"},
	{"gc.cycles_per_job", "count"},
	{"local.run_s", "s"},
	{"local.messages", "count"},
	{"local.msgs_per_s", "1/s"},
	{"local.shard_imbalance", "ratio"},
	{"serve.queue_s.p50", "s"},
	{"serve.run_s.p50", "s"},
	{"serve.http_s.p50", "s"},
	{"serve.colors_s.p50", "s"},
	{"serve.colors_bin_s.p50", "s"},
	{"serve.upload_s.p50", "s"},
	{"serve.hit_s.p50", "s"},
	{"serve.coalesced_ratio", "ratio"},
	{"store.hit_ratio", "ratio"},
	{"store.evictions", "count"},
	{"store.spills", "count"},
	{"store.readmissions", "count"},
	{"trace.overhead_s", "s"},
	{"layers.accounted_ratio", "ratio"},
	{"host.steal_ratio", "ratio"},
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed     uint64
	seconds  float64
	traced   bool
	jobs     int    // > 0: run exactly this many jobs (per client) instead of a time budget; tests only
	workDir  string // scratch directory for spill images and spans
	serveBin string // distcolor-serve binary (serve-mixed only)
}

// outcome is what a workload measured. Metrics holds raw values by metric
// name; the caller reports the ones of the requested kind.
type outcome struct {
	attempted int
	failed    int
	problems  []string // one line per failed check, printed to stderr
	metrics   map[string]float64
	spans     *spanLog
}

// fail records a failed operation or check.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// workload is one named benchmark scenario.
type workload struct {
	name string
	run  func(ctx context.Context, rc runConfig) (*outcome, error)
}

var workloads = []workload{
	{"sparse-regular", sparseRegular.run},
	{"luby-apollonian", lubyApollonian.run},
	{"serve-mixed", serveMixed.run},
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type reportJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// report builds the result line: every metric of the requested kind, 0 for
// any the workload did not produce.
func report(o *outcome, traced bool) reportJSON {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	r := reportJSON{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricJSON{},
	}
	for _, d := range defs {
		r.Metrics[d.name] = metricJSON{Value: o.metrics[d.name], Unit: d.unit}
	}
	return r
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := flag.String("workload", "", "workload to run: "+strings.Join(names, "|"))
	seed := flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 30, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	workDir := flag.String("work-dir", ".bench_build/work", "scratch directory for spill images and span files")
	serveBin := flag.String("serve-bin", ".bench_build/bin/distcolor-serve", "distcolor-serve binary for serve-mixed")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown -workload %q (want %s)", *name, strings.Join(names, "|"))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	rc := runConfig{
		seed:     *seed,
		seconds:  *seconds,
		traced:   *trace == 1,
		workDir:  *workDir,
		serveBin: *serveBin,
	}
	o, err := w.run(context.Background(), rc)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	if o.spans != nil {
		path := filepath.Join(rc.workDir, fmt.Sprintf("spans-%s-%d.json", w.name, rc.seed))
		if err := o.spans.write(path); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	}
	printSummary(w.name, o)
	line, err := json.Marshal(report(o, rc.traced))
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	fmt.Println(string(line))
	if o.failed > 0 || o.attempted == 0 {
		return fmt.Errorf("%s: %d of %d operations failed their check", w.name, o.failed, o.attempted)
	}
	return nil
}

// printSummary writes every measured value and every failed check to
// stderr, for people reading a run; the result line stays on stdout.
func printSummary(name string, o *outcome) {
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", p)
	}
	keys := make([]string, 0, len(o.metrics))
	for k := range o.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(os.Stderr, "perfbench: %s attempted=%d failed=%d\n", name, o.attempted, o.failed)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "  %-24s %.6g\n", k, o.metrics[k])
	}
}

// maxStretch bounds how far past its time budget a run may go to measure
// the jobs its tail percentile needs (minSamples). On the reference host
// (2 vCPUs) only a busy period stretches a run, and by a few seconds.
const maxStretch = 3

// done reports whether a run that started at start has measured enough.
// In job-count mode (tests) that is ran jobs. Otherwise the time budget
// must be used up and at least minJobs jobs verified, or the run must
// have used up maxStretch times its budget.
func (rc runConfig) done(start time.Time, ran, verified, minJobs int) bool {
	if rc.jobs > 0 {
		return ran >= rc.jobs
	}
	el := time.Since(start).Seconds()
	return el >= rc.seconds && (verified >= minJobs || el >= maxStretch*rc.seconds)
}

// checkTail fails a timed run that verified too few jobs for its tail
// percentile (see done).
func (rc runConfig) checkTail(o *outcome, verified, p int) {
	if need := minSamples(p); rc.jobs == 0 && verified < need {
		o.fail("%d jobs verified in %g s; the p%d tail needs %d", verified, maxStretch*rc.seconds, p, need)
	}
}
