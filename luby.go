package distcolor

import (
	"context"
	"math/rand/v2"
	"slices"

	"distcolor/internal/local"
)

// This file is the whole of the "luby" algorithm — a Luby-style randomized
// (Δ+1)-coloring baseline (cf. Luby, SIAM J. Comput. 1986, and the
// randomized-competitor discussion in PAPERS.md) — and doubles as the
// registry's proof of concept: registering one Algorithm descriptor with a
// run func is all it takes to surface a new algorithm in the public API,
// the CLI (-algo luby, -smoke) and the HTTP server, with validation,
// coalescing keys, cancellation and progress inherited for free.

// lubyProgram is one node of the randomized (Δ+1)-coloring: each round,
// with probability ½ (Luby's wake-up trick), an uncolored node proposes a
// color drawn uniformly from {0..Δ} minus its neighbors' finalized colors;
// it keeps the proposal if no neighbor proposed the same color this round,
// announces it, and halts. With (Δ+1)-size palettes a free color always
// exists, and every uncolored node finalizes with constant probability per
// round, so the run completes in O(log n) rounds with high probability.
type lubyProgram struct {
	// The palette is {0..delta} minus taken, the ascending list of colors
	// finalized neighbors took. taken holds at most deg(v) colors: it is a
	// capacity-deg(v) window of one run-wide array of length 2m, so a
	// node's palette costs O(deg) however large Δ is.
	taken []int32
	delta int
	rng   rand.Rand
	pcg   rand.PCG
	color int
	cand  int
	sends []local.Outbound // the run's shared outboxes, see lubySends
}

type lubyMsg struct {
	candidate int
	final     bool
}

// lubySends builds, once per run, every outbox a node can send — a
// proposal and a final announcement per color of {0..delta}, broadcast —
// so a step allocates nothing: sends[2c] proposes c, sends[2c+1] finalizes
// it. Nodes return one-element windows of this read-only table, which the
// engine copies.
func lubySends(delta int) []local.Outbound {
	sends := make([]local.Outbound, 2*(delta+1))
	for c := 0; c <= delta; c++ {
		sends[2*c] = local.Outbound{Port: local.Broadcast, Msg: lubyMsg{candidate: c}}
		sends[2*c+1] = local.Outbound{Port: local.Broadcast, Msg: lubyMsg{candidate: c, final: true}}
	}
	return sends
}

func (p *lubyProgram) Init(info local.NodeInfo) {
	p.color = Uncolored
	p.cand = Uncolored
}

func (p *lubyProgram) Step(round int, inbox []local.Inbound) ([]local.Outbound, bool) {
	conflict := false
	for _, in := range inbox {
		m := in.Msg.(lubyMsg)
		if m.final {
			if m.candidate >= 0 && m.candidate <= p.delta {
				p.take(int32(m.candidate))
			}
			if p.cand == m.candidate {
				conflict = true
			}
			continue
		}
		if m.candidate != Uncolored && m.candidate == p.cand {
			conflict = true
		}
	}
	if p.color != Uncolored {
		return nil, true // final color was announced last round
	}
	if p.cand != Uncolored && !conflict {
		p.color = p.cand
		return p.send(2*p.color + 1), false
	}
	p.cand = Uncolored
	// Luby wake-up: stay silent this round with probability ½.
	if p.rng.IntN(2) == 0 {
		return nil, false
	}
	// Draw the k-th remaining color in ascending order: start at k and step
	// past every taken color at or below the running candidate.
	c := p.rng.IntN(p.delta + 1 - len(p.taken))
	for _, t := range p.taken {
		if int(t) > c {
			break
		}
		c++
	}
	p.cand = c
	return p.send(2 * c), false
}

// take removes color c from the palette, keeping taken ascending and free
// of duplicates (non-adjacent neighbors may finalize the same color).
func (p *lubyProgram) take(c int32) {
	i, found := slices.BinarySearch(p.taken, c)
	if !found {
		p.taken = slices.Insert(p.taken, i, c)
	}
}

func (p *lubyProgram) send(i int) []local.Outbound { return p.sends[i : i+1] }

func (p *lubyProgram) Output() any { return p.color }

func init() {
	MustRegister(&Algorithm{
		Name:       "luby",
		Doc:        "Luby-style randomized (Δ+1)-coloring with ½-probability wake-ups (baseline)",
		Theorem:    "baseline (Luby 1986)",
		Lists:      ListsNone,
		Smoke:      "regular:60,3",
		RoundBound: lubyStyleBound,
		Run: func(ctx context.Context, g *Graph, rc *RunConfig) (*Coloring, error) {
			rng := rc.RNG()
			nw := local.NewShuffledNetwork(g, rng)
			delta := g.MaxDegree()
			ledger := &local.Ledger{Progress: rc.ledgerProgress(), Trace: rc.ledgerTrace()}
			seed := rng.Uint64()
			offsets, _ := g.CSR()
			taken := make([]int32, offsets[g.N()])
			sends := lubySends(delta)
			progs := make([]lubyProgram, g.N())
			outs, err := local.RunSync(ctx, nw, ledger, "luby", rc.MaxRounds(g), func(v int) local.Program {
				p := &progs[v]
				p.taken = taken[offsets[v]:offsets[v]:offsets[v+1]]
				p.delta = delta
				p.pcg = *rand.NewPCG(seed, uint64(nw.ID[v]))
				p.rng = *rand.New(&p.pcg)
				p.sends = sends
				return p
			})
			if err != nil {
				return nil, err
			}
			colors := make([]int, g.N())
			for v, o := range outs {
				colors[v] = o.(int)
			}
			return coloringFromLedger(colors, ledger), nil
		},
	})
}
