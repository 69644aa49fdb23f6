package distcolor

import (
	"context"
	"fmt"

	"distcolor/internal/local"
	"distcolor/internal/seqcolor"
)

// PhaseEvent is one live progress report from a running algorithm: the
// ledger just charged Delta LOCAL rounds to Phase, bringing the emitting
// engine's total to Rounds. Events are delivered synchronously on the
// goroutine executing the run; observers must be fast and non-blocking.
type PhaseEvent struct {
	// Algorithm is the wire name of the running algorithm.
	Algorithm string
	// Phase is the charged phase name ("peel/happy", "extend/ruling", …).
	Phase string
	// Delta is the number of rounds this event charged.
	Delta int
	// Rounds is the emitting engine's cumulative round total so far.
	Rounds int
}

// Option configures a Run invocation.
type Option func(*RunConfig)

// WithSeed shuffles the node identifiers and seeds any internal randomness
// (0 = identity ID assignment). The LOCAL model assigns IDs adversarially;
// shuffling exercises that.
func WithSeed(seed uint64) Option { return func(rc *RunConfig) { rc.Seed = seed } }

// WithLists supplies a per-vertex color-list assignment. Nil is a no-op
// (algorithm default lists). Algorithms with ListsNone support reject it.
func WithLists(lists [][]int) Option {
	return func(rc *RunConfig) {
		if lists != nil {
			rc.Lists = lists
		}
	}
}

// WithBallC overrides the paper's ball-radius constant (experts only; see
// core.DefaultBallC). Ignored by algorithms without ball phases.
func WithBallC(c float64) Option { return func(rc *RunConfig) { rc.BallC = c } }

// WithProgress registers a live phase-progress observer. It is called
// synchronously from the run; keep it fast and non-blocking.
func WithProgress(fn func(PhaseEvent)) Option {
	return func(rc *RunConfig) { rc.progress = fn }
}

// RoundTrace records a run's execution profile: per-phase LOCAL round
// totals (always in exact agreement with Coloring.Phases), and — for
// phases driven by the message-passing engine — per-round message counts,
// active-list sizes and per-worker busy time. Attach one with
// WithTrace; after the run, Report produces the wire-form TraceReport.
type RoundTrace = local.RoundTrace

// TraceReport is the JSON wire form of a completed run's RoundTrace — the
// same schema served by the serving tier's GET /v1/jobs/{id}/trace and
// written by `distcolor -trace`.
type TraceReport = local.TraceReport

// WithTrace attaches a round-trace recorder to the run. The recorder is
// owned by the run until Run returns: read it from the calling goroutine
// afterwards (or synchronously from a WithProgress observer), then build
// the wire report with trace.Report(algo). Nil is a no-op; runs without a
// trace pay one nil check per engine round.
func WithTrace(t *RoundTrace) Option {
	return func(rc *RunConfig) { rc.trace = t }
}

// WithParam sets a named algorithm parameter (see Algorithm.Params).
// Unknown names and out-of-range values fail at Run time.
func WithParam(name string, value float64) Option {
	return func(rc *RunConfig) {
		if rc.explicit == nil {
			rc.explicit = map[string]float64{}
		}
		rc.explicit[name] = value
	}
}

// WithD sets the sparsity parameter d (algorithm "sparse").
func WithD(d int) Option { return WithParam("d", float64(d)) }

// WithArboricity sets the arboricity parameter a (algorithms "arboricity"
// and "be").
func WithArboricity(a int) Option { return WithParam("a", float64(a)) }

// WithEps sets ε (algorithm "be").
func WithEps(eps float64) Option { return WithParam("eps", eps) }

// WithGenus sets the Euler genus (algorithm "genus").
func WithGenus(genus int) Option { return WithParam("genus", float64(genus)) }

// Run is the context-aware entry point of the package: it resolves algo in
// the Algorithm registry, applies the options against the algorithm's
// parameter schema, executes it on g, verifies the coloring, and returns
// it. Cancel ctx (or let its deadline expire) to stop the run within one
// LOCAL round; the run then returns ctx.Err() without leaking goroutines.
//
// Every result is a pure function of (g, algo, options): runs are
// deterministic and safe to cache or coalesce. The legacy top-level
// wrappers (SparseListColor, Planar6, …) are thin shims over Run.
func Run(ctx context.Context, g *Graph, algo string, opts ...Option) (*Coloring, error) {
	a, err := Lookup(algo)
	if err != nil {
		return nil, err
	}
	rc := &RunConfig{algo: a}
	for _, opt := range opts {
		opt(rc)
	}
	rc.Params, err = a.ResolveParams(rc.explicit)
	if err != nil {
		return nil, err
	}
	if rc.Lists != nil && a.Lists == ListsNone {
		return nil, fmt.Errorf("distcolor: algorithm %q does not take caller-supplied lists", a.Name)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if rc.trace != nil {
		rc.trace.Begin()
	}
	col, err := a.Run(ctx, g, rc)
	if err != nil {
		return nil, err
	}
	col.Algorithm = a.Name
	if col.Clique == nil {
		if err := seqcolor.Verify(g, col.Colors, col.Lists); err != nil {
			return nil, fmt.Errorf("distcolor: algorithm %q produced an invalid coloring: %w", a.Name, err)
		}
	}
	return col, nil
}
