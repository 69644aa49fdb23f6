package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"distcolor"
	"distcolor/internal/graph"
	"distcolor/internal/seqcolor"
)

// setupReps is how many times a run performs its set-up: half before the
// measured window (the last of those is the state the run measures) and
// half after it. A burst of host slowdown then moves at most the
// repetitions at one end, and setup_s, their median, samples the host
// across the whole run as the job metrics do.
const setupReps = 6

// idStream is distcolor's PCG stream constant for seed-derived node-ID
// shuffles (distcolor.WithSeed). The benchmark rebuilds the same shuffled
// network to call core directly; if the two ever disagree, the colorings
// differ and the run fails its cross-check.
const idStream = 0x9e3779b97f4a7c15

// derive returns a non-zero 64-bit seed for item i of the named input
// stream of a run with the given seed (splitmix64 over an FNV-1a stream
// tag), so every input is a pure function of (seed, stream, i).
func derive(seed uint64, stream string, i int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(stream))
	x := seed*0x9e3779b97f4a7c15 ^ h.Sum64() ^ uint64(i)*0xbf58476d1ce4e5b9
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// paletteBound returns the most colors algo may use on g: its registered
// PaletteSize, or Δ+1 for the (Δ+1)-coloring baselines that declare none.
func paletteBound(algo string, g *graph.Graph, params map[string]float64) (int, error) {
	a, err := distcolor.Lookup(algo)
	if err != nil {
		return 0, err
	}
	vals, err := a.ResolveParams(params)
	if err != nil {
		return 0, err
	}
	if k, ok := a.PaletteSize(g, vals); ok {
		return k, nil
	}
	return g.MaxDegree() + 1, nil
}

// checkColors re-verifies a returned coloring against the graph the
// benchmark generated: proper, within lists (when the run used any), and
// using at most bound distinct non-negative colors.
func checkColors(g *graph.Graph, colors []int, lists [][]int, bound int) error {
	if colors == nil {
		return fmt.Errorf("no coloring returned")
	}
	if err := seqcolor.Verify(g, colors, lists); err != nil {
		return err
	}
	seen := map[int]bool{}
	for v, c := range colors {
		if c < 0 {
			return fmt.Errorf("vertex %d has negative color %d", v, c)
		}
		seen[c] = true
	}
	if len(seen) > bound {
		return fmt.Errorf("%d colors used, palette bound is %d", len(seen), bound)
	}
	return nil
}

// equalColors reports the first vertex where two colorings differ, or -1.
func equalColors(a, b []int) int {
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// peakRSSMiB reads the peak resident set size (VmHWM) of a process from
// /proc; pid "self" names the benchmark itself.
func peakRSSMiB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// cpuTicks reads the all-CPU line of /proc/stat: the ticks the hypervisor
// stole from this machine's vCPUs, and all ticks (user through steal).
func cpuTicks() (steal, total float64, err error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, fmt.Errorf("reading CPU ticks: %w", err)
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i := 1; i <= 8; i++ { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parsing /proc/stat: %w", err)
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total, nil
}

// stealMeter measures host.steal_ratio: the share of the machine's CPU
// time the hypervisor gave to other guests during the measured window.
// It does not change any other metric; it tells a slow host apart from
// slow code when two runs disagree.
type stealMeter struct{ steal, total float64 }

func startSteal() (stealMeter, error) {
	s, t, err := cpuTicks()
	return stealMeter{s, t}, err
}

func (m stealMeter) ratio() (float64, error) {
	s, t, err := cpuTicks()
	if err != nil {
		return 0, err
	}
	return ratio(s-m.steal, t-m.total), nil
}

// setupTimer times a workload's set-up. Before each repetition reset drops
// the previous one's state and a full garbage collection runs, untimed, so
// every repetition starts from the same heap.
type setupTimer struct {
	reset func()
	setup func() error
	times []float64
}

// run performs n timed repetitions of the set-up.
func (t *setupTimer) run(n int) error {
	for i := 0; i < n; i++ {
		t.reset()
		runtime.GC()
		t0 := time.Now()
		if err := t.setup(); err != nil {
			return err
		}
		t.times = append(t.times, time.Since(t0).Seconds())
	}
	return nil
}

// median returns setup_s, the median repetition, and writes every
// repetition's time to stderr.
func (t *setupTimer) median() float64 {
	fmt.Fprintf(os.Stderr, "perfbench: set-up times %.4g s\n", t.times)
	return median(t.times)
}

// layerOf maps a ledger phase name to the per-layer time metric it is
// charged to ("" for phases outside the named layers, such as the
// clique check, and for message-plane phases, which local.run_s covers).
func layerOf(phase string) string {
	switch {
	case phase == "peel/happy":
		return "core.happy_s"
	case phase == "extend/layered":
		return "core.layered_s"
	case strings.HasPrefix(phase, "extend/ruling"):
		return "ruling.forest_s"
	case strings.HasPrefix(phase, "extend/schedule"):
		return "reduce.schedule_s"
	case phase == "extend/rootballs":
		return "seqcolor.rootballs_s"
	case phase == tailPhase:
		return "seqcolor.verify_s"
	}
	return ""
}

// layerTimes are the per-layer time metrics the phase spans feed.
var layerTimes = []string{
	"core.happy_s", "core.layered_s", "ruling.forest_s",
	"reduce.schedule_s", "seqcolor.rootballs_s", "seqcolor.verify_s", "local.run_s",
}
