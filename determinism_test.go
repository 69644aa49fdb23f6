package distcolor_test

import (
	"context"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"distcolor"
	"distcolor/internal/serve/runcfg"
)

// gomaxprocsLevels is the parallelism sweep: the degenerate single-worker
// engine, the smallest genuinely parallel one, a wider one and whatever the
// host has.
func gomaxprocsLevels() []int {
	levels := []int{1, 2, 4, runtime.NumCPU()}
	sort.Ints(levels)
	out := levels[:1]
	for _, l := range levels[1:] {
		if l != out[len(out)-1] {
			out = append(out, l)
		}
	}
	return out
}

// fingerprint is everything a run reports that must be independent of the
// engine's parallelism: the assignment (or certificate), the round totals,
// the per-phase breakdown and the engine's message accounting.
type fingerprint struct {
	Colors   []int
	Clique   []int
	Rounds   int
	Phases   []distcolor.Phase
	Messages int
}

// hubSpecs adds graphs for the message-passing baselines, whose smoke graphs
// fit under local.BatchThreshold and so never leave the engine's
// single-worker path: apollonian:2000 is large enough for pooled rounds and
// the hand-off to inline ones, and its hubs make Δ far exceed the mean
// degree.
var hubSpecs = map[string][]string{
	"luby":       {"apollonian:2000"},
	"randomized": {"apollonian:2000"},
}

// TestAlgorithmsDeterministicAcrossGOMAXPROCS runs every registered
// algorithm on its own smoke graph (and the message-passing baselines on
// hubSpecs too) at every gomaxprocsLevels value and requires bit-identical
// results: the serving layer's job coalescing and the paper's reported
// round counts both assume a run is a pure function of (graph, config,
// seed), no matter how many workers the message plane spreads over.
func TestAlgorithmsDeterministicAcrossGOMAXPROCS(t *testing.T) {
	levels := gomaxprocsLevels()
	for _, a := range distcolor.Algorithms() {
		if a.Smoke == "" {
			continue
		}
		t.Run(a.Name, func(t *testing.T) {
			for _, spec := range append([]string{a.Smoke}, hubSpecs[a.Name]...) {
				g, err := runcfg.Generate(spec, 1)
				if err != nil {
					t.Fatalf("generating %q: %v", spec, err)
				}
				var ref fingerprint
				for i, p := range levels {
					old := runtime.GOMAXPROCS(p)
					col, err := distcolor.Run(context.Background(), g, a.Name, distcolor.WithSeed(3))
					runtime.GOMAXPROCS(old)
					if err != nil {
						t.Fatalf("%s, GOMAXPROCS=%d: %v", spec, p, err)
					}
					fp := fingerprint{col.Colors, col.Clique, col.Rounds, col.Phases, col.Messages}
					if i == 0 {
						ref = fp
						continue
					}
					if !reflect.DeepEqual(fp, ref) {
						t.Errorf("%s: results differ between GOMAXPROCS=%d and %d:\n  %+v\nvs\n  %+v",
							spec, levels[0], p, ref, fp)
					}
				}
			}
		})
	}
}
