package local

import (
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"distcolor/internal/gen"
	"distcolor/internal/graph"
)

// withGOMAXPROCS runs f with GOMAXPROCS pinned to p, restoring it after.
func withGOMAXPROCS(p int, f func()) {
	old := runtime.GOMAXPROCS(p)
	defer runtime.GOMAXPROCS(old)
	f()
}

// gomaxprocsLevels is the parallelism sweep the determinism tests run at:
// the degenerate single-worker engine, the smallest genuinely parallel one,
// and whatever the host offers.
func gomaxprocsLevels() []int {
	levels := []int{1, 2, runtime.NumCPU()}
	sort.Ints(levels)
	out := levels[:1]
	for _, l := range levels[1:] {
		if l != out[len(out)-1] {
			out = append(out, l)
		}
	}
	return out
}

// orderProgram records the exact inbox sequence it observes — (port, sender
// ID) pairs in delivery order — making any reordering of the message plane
// visible in its output.
type orderProgram struct {
	info   NodeInfo
	rounds int
	seen   [][2]int
}

func (p *orderProgram) Init(info NodeInfo) { p.info = info }

func (p *orderProgram) Step(round int, inbox []Inbound) ([]Outbound, bool) {
	for _, in := range inbox {
		p.seen = append(p.seen, [2]int{in.Port, in.Msg.(int)})
	}
	if round > p.rounds {
		return nil, true
	}
	return []Outbound{{Port: Broadcast, Msg: p.info.ID}}, false
}

func (p *orderProgram) Output() any { return p.seen }

type ledgerView struct {
	Rounds   int
	Phases   []PhaseCost
	Messages int
	MaxRound int
}

func runOrderProgram(t *testing.T, nw *Network, rounds int) ([]any, ledgerView) {
	t.Helper()
	var l Ledger
	outs, err := RunSync(context.Background(), nw, &l, "order", rounds+3, func(int) Program {
		return &orderProgram{rounds: rounds}
	})
	if err != nil {
		t.Fatal(err)
	}
	return outs, ledgerView{l.Rounds(), l.Phases(), l.Messages(), l.MaxRoundMessages()}
}

// hubHeavyNetwork builds a graph dominated by a few high-degree hubs — the
// message plane's worst case, since one worker gathers each hub's whole
// inbox while the leaves' gathers are trivial.
func hubHeavyNetwork(tb testing.TB, hubs, leavesPerHub int) *Network {
	tb.Helper()
	n := hubs * (1 + leavesPerHub)
	b := graph.NewBuilder(n)
	for h := 0; h < hubs; h++ {
		for g := h + 1; g < hubs; g++ {
			if err := b.AddEdge(h, g); err != nil {
				tb.Fatal(err)
			}
		}
		for l := 0; l < leavesPerHub; l++ {
			if err := b.AddEdge(h, hubs+h*leavesPerHub+l); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return NewNetwork(b.Graph())
}

// TestInboxOrderSequential pins the exact delivery contract: every node's
// inbox lists messages in ascending sender-vertex order with receiver-side
// ports, exactly as the sequential coordinator delivered them.
func TestInboxOrderSequential(t *testing.T) {
	nw := hubHeavyNetwork(t, 3, 40)
	g := nw.G
	outs, lv := runOrderProgram(t, nw, 1)
	for v, o := range outs {
		seen := o.([][2]int)
		nbrs := g.Neighbors(v)
		if len(seen) != len(nbrs) {
			t.Fatalf("node %d heard %d messages, want deg=%d", v, len(seen), len(nbrs))
		}
		// ascending sender order = neighbor-list order; the receiver-side
		// port of the i-th arrival is therefore i itself.
		for i, pm := range seen {
			if pm[0] != i || pm[1] != nw.ID[nbrs[i]] {
				t.Fatalf("node %d arrival %d = (port %d, id %d), want (port %d, id %d)",
					v, i, pm[0], pm[1], i, nw.ID[nbrs[i]])
			}
		}
	}
	if want := 2 * g.M(); lv.Messages != want {
		t.Fatalf("messages=%d, want %d (one broadcast round)", lv.Messages, want)
	}
}

// TestRunSyncDeterministicAcrossGOMAXPROCS proves the pooled message plane
// is bit-identical at any parallelism: outputs, per-phase ledger charges,
// message totals and per-round maxima all match the single-worker engine.
func TestRunSyncDeterministicAcrossGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	networks := []struct {
		name string
		nw   *Network
	}{
		{"grid9x9", NewShuffledNetwork(gen.Grid(9, 9), rng)},
		{"gnp200", NewShuffledNetwork(gen.GNP(200, 0.05, rng), rng)},
		{"hubheavy", hubHeavyNetwork(t, 4, 60)},
		{"cycle257", NewShuffledNetwork(gen.Cycle(257), rng)},
	}
	for _, tc := range networks {
		var refOuts []any
		var refLedger ledgerView
		for i, p := range gomaxprocsLevels() {
			var outs []any
			var lv ledgerView
			withGOMAXPROCS(p, func() { outs, lv = runOrderProgram(t, tc.nw, 3) })
			if i == 0 {
				refOuts, refLedger = outs, lv
				continue
			}
			if !reflect.DeepEqual(outs, refOuts) {
				t.Errorf("%s: outputs differ between GOMAXPROCS=%d and %d",
					tc.name, gomaxprocsLevels()[0], p)
			}
			if !reflect.DeepEqual(lv, refLedger) {
				t.Errorf("%s: ledger differs between GOMAXPROCS=%d and %d: %+v vs %+v",
					tc.name, gomaxprocsLevels()[0], p, refLedger, lv)
			}
		}
	}
}

// TestFloodDeterministicAcrossGOMAXPROCS runs the heavyweight flooding
// subroutine — whose Output does real per-node work on the pool — across
// the parallelism sweep.
func TestFloodDeterministicAcrossGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 17))
	nw := NewShuffledNetwork(gen.GNP(80, 0.08, rng), rng)
	var refBalls []BallGraph
	var refLedger ledgerView
	for i, p := range gomaxprocsLevels() {
		var balls []BallGraph
		var lv ledgerView
		withGOMAXPROCS(p, func() {
			var l Ledger
			var err error
			balls, err = CollectBallsSync(context.Background(), nw, &l, "flood", 3)
			if err != nil {
				t.Fatal(err)
			}
			lv = ledgerView{l.Rounds(), l.Phases(), l.Messages(), l.MaxRoundMessages()}
		})
		if i == 0 {
			refBalls, refLedger = balls, lv
			continue
		}
		if !reflect.DeepEqual(balls, refBalls) {
			t.Errorf("balls differ at GOMAXPROCS=%d", p)
		}
		if !reflect.DeepEqual(lv, refLedger) {
			t.Errorf("ledger differs at GOMAXPROCS=%d: %+v vs %+v", p, refLedger, lv)
		}
	}
}

// isolatedPlusEdgeNetwork is one edge {1,2} plus the isolated vertex 0.
func isolatedPlusEdgeNetwork(tb testing.TB) *Network {
	tb.Helper()
	b := graph.NewBuilder(3)
	if err := b.AddEdge(1, 2); err != nil {
		tb.Fatal(err)
	}
	return NewNetwork(b.Graph())
}

// sendOnceProgram emits the given outbox in round 1 and halts.
type sendOnceProgram struct{ out []Outbound }

func (p *sendOnceProgram) Init(NodeInfo) {}
func (p *sendOnceProgram) Step(round int, _ []Inbound) ([]Outbound, bool) {
	if round == 1 {
		return p.out, false
	}
	return nil, true
}
func (p *sendOnceProgram) Output() any { return nil }

// TestBroadcastDegreeZero: a Broadcast from an isolated vertex delivers —
// and counts — nothing, even when repeated in one outbox; the connected
// pair's messages are still counted exactly once each.
func TestBroadcastDegreeZero(t *testing.T) {
	nw := isolatedPlusEdgeNetwork(t)
	var l Ledger
	_, err := RunSync(context.Background(), nw, &l, "deg0", 5, func(v int) Program {
		out := []Outbound{{Port: Broadcast, Msg: 1}}
		if v == 0 {
			// double Broadcast on the degree-0 vertex: must not panic,
			// must not count
			out = append(out, Outbound{Port: Broadcast, Msg: 2})
		}
		return &sendOnceProgram{out: out}
	})
	if err != nil {
		t.Fatal(err)
	}
	if l.Messages() != 2 {
		t.Fatalf("messages=%d, want 2 (only the {1,2} edge carries traffic)", l.Messages())
	}
}

// TestInvalidPortPanics: any non-Broadcast port outside [0, deg) is a
// Program bug and must panic — including port 0 on a degree-0 vertex and
// negative ports that are not the Broadcast sentinel.
func TestInvalidPortPanics(t *testing.T) {
	cases := []struct {
		name string
		v    int // sender vertex in isolatedPlusEdgeNetwork
		port int
	}{
		{"degree0-port0", 0, 0},
		{"negative-not-broadcast", 1, -2},
		{"past-degree", 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nw := isolatedPlusEdgeNetwork(t)
			defer func() {
				if recover() == nil {
					t.Fatalf("send to port %d from vertex %d did not panic", tc.port, tc.v)
				}
			}()
			_, _ = RunSync(context.Background(), nw, nil, "bad", 5, func(v int) Program {
				if v == tc.v {
					return &sendOnceProgram{out: []Outbound{{Port: tc.port, Msg: 0}}}
				}
				return &sendOnceProgram{}
			})
		})
	}
}

// TestMirrorAgainstBinarySearch cross-checks the CSR mirror array the
// engine routes with against the binary search the sequential deliverer
// used: for every directed edge slot, the mirrored port must locate the
// sender in the receiver's sorted neighbor list.
func TestMirrorAgainstBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 23))
	graphs := []*graph.Graph{
		gen.Grid(7, 9),
		gen.GNP(150, 0.04, rng),
		gen.RandomTree(120, rng),
		hubHeavyNetwork(t, 3, 50).G,
	}
	for gi, g := range graphs {
		mirror := g.Mirror()
		offsets, nbrs := g.CSR()
		for v := 0; v < g.N(); v++ {
			for i := offsets[v]; i < offsets[v+1]; i++ {
				w := int(nbrs[i])
				// the old deliver(): binary-search v in w's neighbor list
				wn := g.Neighbors(w)
				lo := sort.Search(len(wn), func(k int) bool { return wn[k] >= int32(v) })
				if lo >= len(wn) || wn[lo] != int32(v) {
					t.Fatalf("graph %d: edge (%d,%d) not mirrored in CSR", gi, v, w)
				}
				if int(mirror[i]) != lo {
					t.Fatalf("graph %d: mirror[%d]=%d, binary search says %d (edge %d→%d)",
						gi, i, mirror[i], lo, v, w)
				}
			}
		}
	}
}

func ExampleRunSync_messageOrder() {
	// Three vertices on a path: 1 is the center. The center's inbox lists
	// arrivals in ascending sender order, tagged with receiver-side ports.
	b := graph.NewBuilder(3)
	_ = b.AddEdge(0, 1)
	_ = b.AddEdge(1, 2)
	nw := NewNetwork(b.Graph())
	outs, _ := RunSync(context.Background(), nw, nil, "example", 5, func(int) Program {
		return &orderProgram{rounds: 1}
	})
	fmt.Println(outs[1])
	// Output: [[0 1] [1 3]]
}
