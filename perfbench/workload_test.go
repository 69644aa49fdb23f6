package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"distcolor/internal/graph"
)

func TestDeriveIsSeededAndNonZero(t *testing.T) {
	if derive(1, "a", 0) != derive(1, "a", 0) {
		t.Fatal("derive is not deterministic")
	}
	seen := map[uint64]bool{}
	for seed := uint64(0); seed < 4; seed++ {
		for _, stream := range []string{"a", "b"} {
			for i := 0; i < 64; i++ {
				x := derive(seed, stream, i)
				if x == 0 {
					t.Fatalf("derive(%d, %q, %d) = 0", seed, stream, i)
				}
				if seen[x] {
					t.Fatalf("derive(%d, %q, %d) repeats an earlier value", seed, stream, i)
				}
				seen[x] = true
			}
		}
	}
}

func TestInprocJobListIsSeeded(t *testing.T) {
	for _, w := range []inprocWorkload{sparseRegular, lubyApollonian} {
		list := func(seed uint64) []inprocJob {
			var out []inprocJob
			for i := 0; i < 32; i++ {
				out = append(out, w.job(seed, i))
			}
			return out
		}
		if !reflect.DeepEqual(list(7), list(7)) {
			t.Errorf("%s: same seed, different job lists", w.name)
		}
		a, b := list(7), list(8)
		for i := range a {
			if a[i].seed == b[i].seed {
				t.Errorf("%s: job %d has the same seed under run seeds 7 and 8", w.name, i)
			}
		}
		seeds := map[uint64]bool{}
		for _, j := range a {
			if seeds[j.seed] {
				t.Errorf("%s: job seed %d repeats within a run", w.name, j.seed)
			}
			seeds[j.seed] = true
		}
	}
}

// In a traced run every graph gets traced and untraced jobs, so
// trace.overhead_s and the per-layer values cover every input.
func TestInprocTracedJobsCoverEveryGraph(t *testing.T) {
	for _, w := range []inprocWorkload{sparseRegular, lubyApollonian} {
		traced, plain := map[int]bool{}, map[int]bool{}
		for i := 0; i < 2*w.graphs; i++ {
			if g := w.job(1, i).graph; w.traced(i) {
				traced[g] = true
			} else {
				plain[g] = true
			}
		}
		if len(traced) != w.graphs || len(plain) != w.graphs {
			t.Errorf("%s: over %d jobs, %d of %d graphs traced and %d untraced",
				w.name, 2*w.graphs, len(traced), w.graphs, len(plain))
		}
	}
}

// A timed run measures its budget and then goes on until the tail
// percentile has its samples, but no longer than maxStretch budgets.
func TestDoneWaitsForTailSamples(t *testing.T) {
	rc := runConfig{seconds: 1}
	need := minSamples(75)
	ago := func(s float64) time.Time { return time.Now().Add(-time.Duration(s * float64(time.Second))) }
	for _, tc := range []struct {
		elapsed  float64
		verified int
		want     bool
	}{
		{0.5, need, false},
		{1.5, need - 1, false},
		{1.5, need, true},
		{maxStretch + 0.5, 0, true},
	} {
		if got := rc.done(ago(tc.elapsed), tc.verified, tc.verified, need); got != tc.want {
			t.Errorf("done after %gs with %d verified = %v, want %v", tc.elapsed, tc.verified, got, tc.want)
		}
	}
	if !(runConfig{jobs: 3}).done(time.Now(), 3, 0, need) {
		t.Error("job-count mode waits for tail samples")
	}
	o := &outcome{}
	rc.checkTail(o, need-1, 75)
	if o.failed != 1 {
		t.Error("a timed run short of tail samples does not fail")
	}
}

func TestServeCoreOpsAreFixed(t *testing.T) {
	w := serveMixed
	ops := w.coreOps(3)
	if len(ops) != w.clients*w.coreJobs || !reflect.DeepEqual(ops, w.coreOps(3)) {
		t.Fatalf("coreOps gives %d ops, want %d, the same for the same seed", len(ops), w.clients*w.coreJobs)
	}
	var want []serveOp
	for k := 0; k < w.clients; k++ {
		n := 0
		for _, op := range w.ops(3, k, 20) {
			if op.kind == opFresh && n < w.coreJobs {
				want = append(want, op)
				n++
			}
		}
	}
	if !reflect.DeepEqual(ops, want) {
		t.Fatal("coreOps are not the first fresh ops of each client's list")
	}
	if reflect.DeepEqual(ops, w.coreOps(4)) {
		t.Fatal("another seed gives the same core ops")
	}
}

func TestServeOpListIsSeeded(t *testing.T) {
	w := serveMixed
	a := w.ops(3, 0, 400)
	if !reflect.DeepEqual(a, w.ops(3, 0, 400)) {
		t.Fatal("same seed and client, different op lists")
	}
	if !reflect.DeepEqual(a[:100], w.ops(3, 0, 100)) {
		t.Fatal("the op list is not prefix-stable")
	}
	if reflect.DeepEqual(a, w.ops(4, 0, 400)) || reflect.DeepEqual(a, w.ops(3, 1, 400)) {
		t.Fatal("another seed or client gives the same op list")
	}
	if 2*w.replayWindow > w.retain {
		t.Fatalf("two clients' replay windows (%d each) do not fit the server's -retain %d", w.replayWindow, w.retain)
	}
	counts := map[opKind]int{}
	var fresh []int
	for i, op := range a {
		counts[op.kind]++
		switch op.kind {
		case opFresh:
			fresh = append(fresh, i)
		case opReplay:
			if op.replay >= i || a[op.replay].kind != opFresh {
				t.Fatalf("op %d replays op %d, which is not an earlier fresh op", i, op.replay)
			}
			if n := len(fresh); n > w.replayWindow && op.replay < fresh[n-w.replayWindow] {
				t.Fatalf("op %d replays op %d, older than the latest %d fresh ops", i, op.replay, w.replayWindow)
			}
		}
	}
	if a[0].kind == opReplay {
		t.Fatal("the first op is a replay")
	}
	for kind, pct := range map[opKind]int{opFresh: w.freshPct, opReplay: w.replayPct, opUpload: 100 - w.freshPct - w.replayPct} {
		if got := counts[kind] * 100 / len(a); got < pct-8 || got > pct+8 {
			t.Errorf("%s ops are %d%% of the list, want about %d%%", kind, got, pct)
		}
	}
}

// The serve inputs are the graphs the server generates from the same
// specs, and differ between seeds.
func TestServeInputsAreSeeded(t *testing.T) {
	w := serveMixed
	w.gen, w.pool, w.uploads = "apollonian:200", 2, 2
	a, err := w.inputs(5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.inputs(5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := w.inputs(6)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.bodies, b.bodies) || !reflect.DeepEqual(a.pool[1].Edges(), b.pool[1].Edges()) {
		t.Fatal("same seed, different inputs")
	}
	if reflect.DeepEqual(a.bodies[0], c.bodies[0]) || reflect.DeepEqual(a.pool[0].Edges(), c.pool[0].Edges()) {
		t.Fatal("another seed gives the same inputs")
	}
	if a.bound != 6 {
		t.Fatalf("planar6 palette bound %d, want 6", a.bound)
	}
}

// exactCounts are the metrics a run must reproduce exactly for a fixed
// seed and job count.
var exactCounts = []string{"rounds.mean", "local.messages", "core.iterations", "core.root_balls", "ruling.max_depth"}

func TestInprocSameSeedSameCounts(t *testing.T) {
	small := map[string]inprocWorkload{
		"sparse": func() inprocWorkload { w := sparseRegular; w.gen, w.graphs = "regular:3000,3", 2; return w }(),
		"luby":   func() inprocWorkload { w := lubyApollonian; w.gen, w.graphs = "apollonian:3000", 2; return w }(),
	}
	for name, w := range small {
		t.Run(name, func(t *testing.T) {
			run := func(seed uint64) *outcome {
				o, err := w.run(context.Background(), runConfig{seed: seed, jobs: 6, traced: true})
				if err != nil {
					t.Fatal(err)
				}
				if o.failed != 0 || o.attempted != 6 {
					t.Fatalf("attempted %d, failed %d: %v", o.attempted, o.failed, o.problems)
				}
				return o
			}
			a, b := run(11), run(11)
			for _, m := range exactCounts {
				if a.metrics[m] != b.metrics[m] {
					t.Errorf("%s: %g then %g under the same seed", m, a.metrics[m], b.metrics[m])
				}
			}
			if a.metrics["rounds.mean"] == 0 {
				t.Error("rounds.mean is 0")
			}
			ga, _ := w.generate(11)
			gb, _ := w.generate(12)
			if reflect.DeepEqual(ga[0].Edges(), gb[0].Edges()) {
				t.Error("seeds 11 and 12 generate the same graph")
			}
		})
	}
}

func TestInprocTracedLayers(t *testing.T) {
	w := sparseRegular
	w.gen, w.graphs = "regular:3000,3", 1
	o, err := w.run(context.Background(), runConfig{seed: 1, jobs: 4, traced: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"core.happy_s", "ruling.forest_s", "seqcolor.rootballs_s", "core.iterations", "core.root_balls", "gc.alloc_mb_per_job"} {
		if o.metrics[m] <= 0 {
			t.Errorf("%s = %g on a traced sparse run", m, o.metrics[m])
		}
	}
	if r := o.metrics["layers.accounted_ratio"]; r < 0.5 || r > 1.0001 {
		t.Errorf("layers.accounted_ratio = %g", r)
	}
	if o.metrics["local.messages"] != 0 {
		t.Errorf("sparse sent %g messages", o.metrics["local.messages"])
	}
	if o.spans == nil || len(o.spans.spans) == 0 {
		t.Fatal("no spans recorded")
	}
}

func TestCheckColorsRejectsBadColorings(t *testing.T) {
	g, err := graph.New(3, [][2]int{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkColors(g, []int{0, 1, 0}, nil, 2); err != nil {
		t.Fatalf("proper 2-coloring rejected: %v", err)
	}
	for _, tc := range []struct {
		colors []int
		bound  int
	}{
		{nil, 2},              // no coloring
		{[]int{0, 0, 1}, 2},   // monochromatic edge
		{[]int{0, 1, 2}, 2},   // over the palette bound
		{[]int{0, 1}, 2},      // wrong length
		{[]int{-5, 1, -5}, 2}, // negative colors
		{[]int{0, -1, 0}, 2},  // uncolored vertex
		{[]int{0, 1, 0}, 1},   // over a tighter bound
	} {
		if err := checkColors(g, tc.colors, nil, tc.bound); err == nil {
			t.Errorf("checkColors(%v, bound %d) accepted a bad coloring", tc.colors, tc.bound)
		}
	}
}

// BENCHMARK.json and the program's metric catalog must name the same
// metrics with the same units.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		want := map[string]string{}
		for _, d := range defs {
			want[d.name] = d.unit
		}
		have := map[string]string{}
		for _, m := range got {
			have[m.Name] = m.Unit
		}
		if !reflect.DeepEqual(want, have) {
			t.Errorf("%s: program reports %v, BENCHMARK.json lists %v", kind, want, have)
		}
	}
	check("end_to_end", endToEnd, bench.EndToEnd)
	check("per_layer", perLayer, bench.PerLayer)
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	tailP := map[string]int{sparseRegular.name: sparseRegular.tailP, lubyApollonian.name: lubyApollonian.tailP, "serve-mixed": serveMixed.tailP}
	for _, w := range bench.Workloads {
		if p := fmt.Sprintf("tail p%d", tailP[w.Name]); !strings.Contains(w.Why, p) {
			t.Errorf("BENCHMARK.json: the why of %s does not record its %q", w.Name, p)
		}
	}
}

func TestReportHasEveryMetricOfItsKind(t *testing.T) {
	o := &outcome{attempted: 3, metrics: map[string]float64{"job_s.p50": 1.5, "core.happy_s": 0.2}}
	for traced, defs := range map[bool][]metricDef{false: endToEnd, true: perLayer} {
		r := report(o, traced)
		if !r.Correct || len(r.Metrics) != len(defs) {
			t.Fatalf("traced=%v: correct %v, %d metrics, want %d", traced, r.Correct, len(r.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := r.Metrics[d.name]; !ok || m.Unit != d.unit || m.Value != o.metrics[d.name] {
				t.Errorf("traced=%v: metric %s = %+v", traced, d.name, m)
			}
		}
	}
	o.failed = 1
	if report(o, false).Correct {
		t.Fatal("a run with a failed check reports correct")
	}
}

func TestSpanFileLoadsAsChromeTrace(t *testing.T) {
	w := sparseRegular
	w.gen, w.graphs = "regular:500,3", 1
	o, err := w.run(context.Background(), runConfig{seed: 2, jobs: 2, traced: true})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := o.spans.write(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	ids := map[int]chromeEvent{}
	for _, e := range file.TraceEvents {
		ids[e.Args["id"]] = e
	}
	jobs := 0
	for _, e := range file.TraceEvents {
		if e.Ph != "X" || e.Dur < 0 || e.Ts < 0 {
			t.Fatalf("bad event %+v", e)
		}
		p := e.Args["parent"]
		if p == 0 {
			jobs++
			continue
		}
		parent, ok := ids[p]
		if !ok {
			t.Fatalf("event %q has unknown parent %d", e.Name, p)
		}
		if e.Ts < parent.Ts-1e-3 || e.Ts+e.Dur > parent.Ts+parent.Dur+1e-3 {
			t.Fatalf("event %q [%g, +%g] lies outside its parent %q [%g, +%g]",
				e.Name, e.Ts, e.Dur, parent.Name, parent.Ts, parent.Dur)
		}
	}
	if jobs != 1 { // one traced job of two: traced and untraced jobs alternate
		t.Fatalf("%d root spans, want 1", jobs)
	}
}
