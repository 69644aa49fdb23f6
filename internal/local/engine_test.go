package local

import (
	"context"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"distcolor/internal/gen"
	"distcolor/internal/graph"
)

// arrival is one message as a node saw it: the round it was gathered in,
// the receiver-side port and the payload.
type arrival struct {
	Round, Port, Msg int
}

// reuseProgram returns the same outbox slice every round, rewriting it in
// place: a Broadcast tagged with (ID, round) followed by a port message to
// port round mod deg. Nodes halt at staggered rounds, sending on their last
// step too, so the run also checks that a halted node's outbox is gathered
// exactly once.
type reuseProgram struct {
	info NodeInfo
	last int
	out  []Outbound
	seen []arrival
}

func (p *reuseProgram) Init(info NodeInfo) {
	p.info = info
	p.last = 1 + info.ID%5
	p.out = make([]Outbound, 0, 2)
}

func (p *reuseProgram) Step(round int, inbox []Inbound) ([]Outbound, bool) {
	for _, in := range inbox {
		p.seen = append(p.seen, arrival{round, in.Port, in.Msg.(int)})
	}
	p.out = p.out[:0]
	if p.info.Degree > 0 {
		tag := p.info.ID*1000 + round
		p.out = append(p.out,
			Outbound{Port: Broadcast, Msg: tag},
			Outbound{Port: round % p.info.Degree, Msg: -tag})
	}
	return p.out, round == p.last
}

func (p *reuseProgram) Output() any { return p.seen }

// expectedArrivals computes, straight from the graph, what every node of a
// reuseProgram run must gather: in round r, for each neighbour u in
// ascending order that was still stepping in round r-1, u's broadcast and —
// when u's port message of round r-1 targeted v — that message after it.
func expectedArrivals(nw *Network) [][]arrival {
	g := nw.G
	n := g.N()
	last := make([]int, n)
	for v := range last {
		last[v] = 1 + nw.ID[v]%5
	}
	want := make([][]arrival, n)
	for v := 0; v < n; v++ {
		for r := 2; r <= last[v]; r++ {
			for port, u32 := range g.Neighbors(v) {
				u := int(u32)
				if last[u] < r-1 {
					continue
				}
				tag := nw.ID[u]*1000 + r - 1
				want[v] = append(want[v], arrival{r, port, tag})
				if nb := g.Neighbors(u); nb[(r-1)%len(nb)] == int32(v) {
					want[v] = append(want[v], arrival{r, port, -tag})
				}
			}
		}
	}
	return want
}

// TestReusedOutboxDelivery: a program may rewrite and re-return the same
// outbox slice every round, because the engine copies what it returns.
// Every gathered message must be the one sent in the previous round, never a
// later overwrite and never a stale outbox of a node that already halted.
func TestReusedOutboxDelivery(t *testing.T) {
	rng := rand.New(rand.NewPCG(37, 41))
	networks := []struct {
		name string
		nw   *Network
	}{
		{"grid11x13", NewShuffledNetwork(gen.Grid(11, 13), rng)},
		{"gnp250", NewShuffledNetwork(gen.GNP(250, 0.04, rng), rng)},
		{"hubheavy", hubHeavyNetwork(t, 4, 50)},
	}
	for _, tc := range networks {
		want := expectedArrivals(tc.nw)
		for _, p := range gomaxprocsLevels() {
			for _, bt := range []int{0, workerChunk} {
				var outs []any
				withGOMAXPROCS(p, func() {
					withBatchThreshold(bt, func() {
						var err error
						outs, err = RunSync(context.Background(), tc.nw, nil, "reuse", 10, func(int) Program {
							return &reuseProgram{}
						})
						if err != nil {
							t.Fatal(err)
						}
					})
				})
				for v, o := range outs {
					got := o.([]arrival)
					if len(got) == 0 && len(want[v]) == 0 {
						continue
					}
					if !reflect.DeepEqual(got, want[v]) {
						t.Fatalf("%s GOMAXPROCS=%d BatchThreshold=%d: node %d gathered\n  %v\nwant\n  %v",
							tc.name, p, bt, v, got, want[v])
					}
				}
			}
		}
	}
}

// TestPortAndBroadcastKeepOutboxOrder: a neighbour addressed both by a port
// message and by a broadcast in one outbox receives them in outbox order;
// the other neighbours receive only the broadcast.
func TestPortAndBroadcastKeepOutboxOrder(t *testing.T) {
	// A star: center 0, leaves 1..3. The center's port 1 is leaf 2.
	b := graph.NewBuilder(4)
	for leaf := 1; leaf < 4; leaf++ {
		if err := b.AddEdge(0, leaf); err != nil {
			t.Fatal(err)
		}
	}
	nw := NewNetwork(b.Graph())
	var l Ledger
	outs, err := RunSync(context.Background(), nw, &l, "order", 5, func(v int) Program {
		if v == 0 {
			return &sendOnceProgram{out: []Outbound{
				{Port: 1, Msg: "p"},
				{Port: Broadcast, Msg: "b"},
				{Port: 1, Msg: "q"},
			}}
		}
		return &recordProgram{}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]string{1: "b", 2: "pbq", 3: "b"}
	for leaf, w := range want {
		if got := outs[leaf].(string); got != w {
			t.Errorf("leaf %d received %q, want %q", leaf, got, w)
		}
	}
	if l.Messages() != 5 {
		t.Errorf("messages=%d, want 5 (3 broadcast copies + 2 port sends)", l.Messages())
	}
}

// recordProgram concatenates the string payloads it receives in round 2,
// then halts.
type recordProgram struct{ got string }

func (p *recordProgram) Init(NodeInfo) {}
func (p *recordProgram) Step(round int, inbox []Inbound) ([]Outbound, bool) {
	for _, in := range inbox {
		p.got += in.Msg.(string)
	}
	return nil, round >= 2
}
func (p *recordProgram) Output() any { return p.got }

// quietProgram broadcasts a constant (whose boxing allocates nothing) from a
// reused outbox until its round limit.
type quietProgram struct {
	rounds int
	acc    int
	out    [1]Outbound
}

func (p *quietProgram) Init(NodeInfo) {}
func (p *quietProgram) Step(round int, inbox []Inbound) ([]Outbound, bool) {
	for _, in := range inbox {
		p.acc += in.Msg.(int)
	}
	if round > p.rounds {
		return nil, true
	}
	p.out[0] = Outbound{Port: Broadcast, Msg: 1}
	return p.out[:], false
}
func (p *quietProgram) Output() any { return nil }

// mallocsPerRun is testing.AllocsPerRun without its pinning of GOMAXPROCS
// to 1, so a pooled engine is measured too: the mean heap allocations of
// runs calls of f, minimum over three such measurements.
func mallocsPerRun(runs int, f func()) float64 {
	best := math.Inf(1)
	for k := 0; k < 3; k++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		best = min(best, float64(after.Mallocs-before.Mallocs)/float64(runs))
	}
	return best
}

// TestSteadyStateRoundsAllocateNothing: once a run is set up, engine rounds
// allocate nothing, inline or pooled, so a run of 40 rounds makes as many
// allocations as a run of 4 (give or take runtime noise).
func TestSteadyStateRoundsAllocateNothing(t *testing.T) {
	nw := NewNetwork(gen.Grid(30, 30))
	progs := make([]quietProgram, nw.G.N())
	run := func(rounds int) func() {
		return func() {
			_, err := RunSync(context.Background(), nw, nil, "quiet", rounds+3, func(v int) Program {
				progs[v] = quietProgram{rounds: rounds}
				return &progs[v]
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	// The collector stays off: each cycle empties the runtime's caches of
	// channel-waiter records, which later rounds would allocate afresh. The
	// warm-up fills those caches (and the goroutine free list) first.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, p := range gomaxprocsLevels() {
		withGOMAXPROCS(p, func() {
			for i := 0; i < 10; i++ {
				run(40)()
			}
			short, long := mallocsPerRun(10, run(4)), mallocsPerRun(10, run(40))
			if d := long - short; d > 2 || d < -2 {
				t.Errorf("GOMAXPROCS=%d: %v allocations over 4 rounds, %v over 40", p, short, long)
			}
		})
	}
}
