package local

import (
	"context"
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"

	"distcolor/internal/gen"
)

// countdownProgram broadcasts a round-tagged message until a per-node
// deadline derived from its ID, recording every arrival. Deadlines are
// staggered so the active list shrinks gradually — the run crosses the
// BatchThreshold fusion cutoff mid-execution, exercising the pooled→inline
// hand-off rather than starting on either side of it.
type countdownProgram struct {
	info NodeInfo
	last int
	seen [][2]int
}

func (p *countdownProgram) Init(info NodeInfo) {
	p.info = info
	p.last = 1 + (info.ID*7)%40
}

func (p *countdownProgram) Step(round int, inbox []Inbound) ([]Outbound, bool) {
	for _, in := range inbox {
		p.seen = append(p.seen, [2]int{in.Port, in.Msg.(int)})
	}
	if round > p.last {
		return nil, true
	}
	return []Outbound{{Port: Broadcast, Msg: p.info.ID*100 + round}}, false
}

func (p *countdownProgram) Output() any { return p.seen }

// withBatchThreshold runs f with the fusion cutoff pinned, restoring it
// after. No engine may be running across the change.
func withBatchThreshold(bt int, f func()) {
	old := BatchThreshold
	BatchThreshold = bt
	defer func() { BatchThreshold = old }()
	f()
}

// TestRoundBatchingBitIdentical is the round-batching contract: fusing
// low-traffic rounds into inline serial execution must leave outputs,
// per-phase ledger charges, message totals and per-round maxima
// bit-identical to the fully pooled engine, at GOMAXPROCS 1 and NumCPU
// alike. BatchThreshold=0 never fuses, workerChunk is the shipped cutoff
// (crossed mid-run by the staggered halts), and the huge cutoff runs every
// round fused from round 1.
func TestRoundBatchingBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 31))
	networks := []struct {
		name string
		nw   *Network
	}{
		{"grid12x17", NewShuffledNetwork(gen.Grid(12, 17), rng)},
		{"gnp300", NewShuffledNetwork(gen.GNP(300, 0.03, rng), rng)},
		{"hubheavy", hubHeavyNetwork(t, 4, 60)},
	}
	levels := []int{1, runtime.NumCPU()}
	if levels[1] == 1 {
		levels = levels[:1]
	}
	thresholds := []int{0, workerChunk, 1 << 30}
	for _, tc := range networks {
		var refOuts []any
		var refLedger ledgerView
		first := true
		for _, p := range levels {
			for _, bt := range thresholds {
				var outs []any
				var lv ledgerView
				withGOMAXPROCS(p, func() {
					withBatchThreshold(bt, func() {
						var l Ledger
						var err error
						outs, err = RunSync(context.Background(), tc.nw, &l, "batch", 60, func(int) Program {
							return &countdownProgram{}
						})
						if err != nil {
							t.Fatal(err)
						}
						lv = ledgerView{l.Rounds(), l.Phases(), l.Messages(), l.MaxRoundMessages()}
					})
				})
				if first {
					refOuts, refLedger = outs, lv
					first = false
					continue
				}
				if !reflect.DeepEqual(outs, refOuts) {
					t.Errorf("%s: outputs differ at GOMAXPROCS=%d BatchThreshold=%d", tc.name, p, bt)
				}
				if !reflect.DeepEqual(lv, refLedger) {
					t.Errorf("%s: ledger differs at GOMAXPROCS=%d BatchThreshold=%d: %+v vs %+v",
						tc.name, p, bt, refLedger, lv)
				}
			}
		}
	}
}
