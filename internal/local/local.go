// Package local implements the LOCAL model of distributed computing
// (Linial): an n-node network where every node has a unique identifier,
// nodes operate in synchronous rounds, message size is unbounded and local
// computation is free. The round complexity of an algorithm is the number
// of rounds until every node has produced its output.
//
// The package offers two execution faces with a shared round ledger:
//
//   - RunSync: a genuine synchronous message-passing engine — each round a
//     bounded worker pool steps every active node, which first pulls its
//     inbox from its neighbours' previous-round outboxes (double-buffered
//     by round parity), so delivery is deterministic at any parallelism.
//     Used by the small-message subroutines (color reduction, flooding,
//     ball collection), the randomized baselines and the cross-validation
//     tests.
//   - Ledger.Charge: explicit round charging for centrally executed phases.
//     In the LOCAL model any r-round algorithm is exactly equivalent to
//     "collect the labeled radius-r ball and decide" — so ball-scale phases
//     (Gallai checks at radius c·log n, ruling-forest levels, root-ball
//     recoloring) execute centrally and charge their LOCAL cost explicitly.
//
// All round counts reported by the reproduction come from Ledger.
package local

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"distcolor/internal/graph"
)

// Network binds a graph to an ID assignment. IDs are a permutation of
// 1..n, as in the paper (each node also knows n).
type Network struct {
	G  *graph.Graph
	ID []int // ID[v] is the identifier of vertex v (1-based, unique)
}

// NewNetwork assigns IDs 1..n in vertex order.
func NewNetwork(g *graph.Graph) *Network {
	ids := make([]int, g.N())
	for v := range ids {
		ids[v] = v + 1
	}
	return &Network{G: g, ID: ids}
}

// NewShuffledNetwork assigns a random permutation of 1..n as IDs.
func NewShuffledNetwork(g *graph.Graph, rng *rand.Rand) *Network {
	ids := rng.Perm(g.N())
	for v := range ids {
		ids[v]++
	}
	return &Network{G: g, ID: ids}
}

// Validate checks that IDs are a permutation of 1..n.
func (nw *Network) Validate() error {
	n := nw.G.N()
	if len(nw.ID) != n {
		return fmt.Errorf("local: %d ids for %d vertices", len(nw.ID), n)
	}
	seen := make([]bool, n+1)
	for _, id := range nw.ID {
		if id < 1 || id > n || seen[id] {
			return fmt.Errorf("local: ids are not a permutation of 1..%d", n)
		}
		seen[id] = true
	}
	return nil
}

// PhaseCost records the LOCAL rounds charged to one named phase.
type PhaseCost struct {
	Phase  string
	Rounds int
}

// ProgressFunc observes round charges as they land on a ledger: phase is the
// charged phase name, delta the rounds just charged, total the cumulative
// rounds so far. Observers run synchronously on the charging goroutine and
// must be fast and non-blocking.
type ProgressFunc func(phase string, delta, total int)

// Ledger accumulates the LOCAL round cost of an algorithm execution, with a
// per-phase breakdown, plus message statistics for the message-passing
// engine (the LOCAL model does not bound message size; the ledger records
// what a CONGEST implementation would have to pay). The zero value is ready
// to use. Ledger is not goroutine-safe; engines own one ledger each.
type Ledger struct {
	phases []PhaseCost
	total  int

	messages     int // messages sent through RunSync
	maxRoundMsgs int // largest per-round total message count

	// Progress, when non-nil, is invoked on every non-zero Charge. Set it
	// before handing the ledger to an engine; it is how live phase progress
	// reaches distcolor.WithProgress observers.
	Progress ProgressFunc

	// Trace, when non-nil, records the execution profile: every Charge
	// lands in it, and RunSync additionally feeds it per-round message
	// counts, active-list sizes and per-worker busy time. Several
	// ledgers may share one trace (an outer run and its sub-runs record
	// live into the same object); whoever folds a sub-ledger into an outer
	// one with Merge must detach the shared trace first or the merged
	// charges are recorded twice (see core.mergeLedger).
	Trace *RoundTrace
}

// Messages returns the number of point-to-point messages sent through the
// message-passing engine (broadcasts count once per neighbor).
func (l *Ledger) Messages() int { return l.messages }

// MaxRoundMessages returns the largest number of messages sent in any
// single round.
func (l *Ledger) MaxRoundMessages() int { return l.maxRoundMsgs }

func (l *Ledger) recordRoundMessages(count int) {
	l.messages += count
	if count > l.maxRoundMsgs {
		l.maxRoundMsgs = count
	}
}

// Charge adds rounds to the named phase (merged with the previous entry when
// the phase name repeats consecutively).
func (l *Ledger) Charge(phase string, rounds int) {
	if rounds < 0 {
		panic("local: negative round charge")
	}
	l.total += rounds
	if k := len(l.phases); k > 0 && l.phases[k-1].Phase == phase {
		l.phases[k-1].Rounds += rounds
	} else {
		l.phases = append(l.phases, PhaseCost{Phase: phase, Rounds: rounds})
	}
	if l.Trace != nil {
		l.Trace.charge(phase, rounds)
	}
	if l.Progress != nil && rounds > 0 {
		l.Progress(phase, rounds, l.total)
	}
}

// Rounds returns the total rounds charged.
func (l *Ledger) Rounds() int { return l.total }

// Phases returns a copy of the per-phase breakdown.
func (l *Ledger) Phases() []PhaseCost {
	return append([]PhaseCost(nil), l.phases...)
}

// Merge adds another ledger's charges into l under the given prefix.
func (l *Ledger) Merge(prefix string, other *Ledger) {
	for _, p := range other.phases {
		l.Charge(prefix+p.Phase, p.Rounds)
	}
}

// ByPhase aggregates total rounds per phase name (non-consecutive repeats
// are summed), sorted by descending rounds.
func (l *Ledger) ByPhase() []PhaseCost {
	agg := map[string]int{}
	for _, p := range l.phases {
		agg[p.Phase] += p.Rounds
	}
	out := make([]PhaseCost, 0, len(agg))
	for ph, r := range agg {
		out = append(out, PhaseCost{Phase: ph, Rounds: r})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rounds != out[j].Rounds {
			return out[i].Rounds > out[j].Rounds
		}
		return out[i].Phase < out[j].Phase
	})
	return out
}

// Message is an arbitrary value exchanged between neighbors in one round.
type Message any

// Inbound is a message received from the neighbor attached at Port.
type Inbound struct {
	Port int // index into this node's neighbor list
	Msg  Message
}

// Outbound is a message to send to the neighbor attached at Port. A
// Broadcast port of -1 sends to all neighbors.
type Outbound struct {
	Port int
	Msg  Message
}

// Broadcast is the Outbound port meaning "all neighbors".
const Broadcast = -1

// NodeInfo is the static knowledge a node starts with, per the paper's
// model: its own ID, its degree, and n.
type NodeInfo struct {
	V int // vertex index — engines use it for routing; honest programs
	// only read ID/Degree/N and the per-node data handed to them.
	ID     int
	Degree int
	N      int
}

// Program is the state machine of one node. Step is called once per round
// with the messages received; it returns messages to send and whether the
// node has halted (halted nodes receive no further Steps; their pending
// outbox is still delivered).
type Program interface {
	Init(info NodeInfo)
	Step(round int, inbox []Inbound) (outbox []Outbound, halt bool)
	Output() any
}

// workerChunk is how many active nodes a pool worker claims per grab. Large
// enough to amortize the atomic increment, small enough to balance skewed
// per-node step costs (a hub gathers far more messages than a leaf).
const workerChunk = 64

// BatchThreshold is the active-list size at or below which the engine fuses
// every remaining round into inline execution on the coordinator: once the
// live active list fits in a single worker chunk there is nothing left to
// parallelize, and a pool dispatch (workers woken, a barrier) costs more than
// the round it runs. The active list only ever shrinks — halted nodes never
// return — so the engine switches once and never wakes the pool again for
// the rest of the execution. This matters on the long bounded tails the
// registry's RoundBound metadata describes (e.g. the Δ²-palette color
// reductions charge one round per color class while only that class is
// active). Inline and pooled rounds run the same per-node code, so outputs,
// ledger charges and message counts are bit-identical either way, which the
// engine tests enforce by holding fused executions against
// BatchThreshold=0 runs.
//
// 0 disables fusion (every multi-worker round runs on the pool). The engine
// snapshots the value at creation; tests that change it must restore it and
// must not race a running engine.
var BatchThreshold = workerChunk

// worker is one pool worker's private round state. Only the worker that
// owns it (or the coordinator, while the pool is parked) touches it, and the
// trailing pad keeps neighbouring workers' hot fields off a shared cache
// line.
type worker struct {
	inbox  []Inbound // gather scratch, reused for every node this worker steps
	msgs   int       // messages sent this round, drained by roundMessages
	busyNs int64     // pooled step-phase wall time, fed to the RoundTrace
	_      [64]byte
}

// engine is the pull-based message plane behind RunSync. A round is one pool
// phase over min(GOMAXPROCS, n) long-lived workers, which claim chunks of the
// active list off an atomic cursor. For each node v a worker:
//
//   - gathers v's inbox into its scratch buffer by walking v's CSR row: for
//     every neighbour u it keeps the messages of u's previous-round outbox
//     that are a Broadcast or address v's port at u (graph.Mirror). Rows are
//     sorted, so the inbox lists senders in ascending vertex order and each
//     sender's messages in outbox order — the same at any GOMAXPROCS, and
//     independent of which worker stepped which sender;
//   - steps v, validates its outbox's ports, counts its messages (deg per
//     Broadcast, one per port send) and copies the outbox into its chunk's
//     arena for the current round parity.
//
// Outboxes are double-buffered by round parity: round r writes generation
// r&1 while its gathers read generation (r-1)&1, so no slot is written and
// read in the same phase. Between rounds the coordinator compacts the active
// list and empties the slots halted nodes no longer refresh.
//
// Once the active list shrinks to at most batchLimit nodes, every remaining
// round runs inline on the coordinator with worker 0's scratch (see
// BatchThreshold). Output collection at the end of the run is a second kind
// of pool phase, chunked over all vertices.
type engine struct {
	offsets []int32
	nbrs    []int32
	mirror  []int32
	progs   []Program

	outs [2][][]Outbound // outs[g][v]: v's outbox from the last round of parity g
	// arenas[g][c] holds the copies of the outboxes that the nodes of chunk c
	// (active[c*workerChunk:], up to workerChunk nodes) sent in the last
	// round of parity g. Arenas belong to chunks, not workers, so together
	// they hold one message per node whatever the pool size, and which
	// worker claims a chunk changes nothing that is allocated.
	arenas [2][][]Outbound
	active []int32 // non-halted nodes, ascending; compacted each round
	halts  []bool  // per-node result slot, written during the step phase
	// halted lists the nodes that halted in the previous round: their final
	// outboxes are read once more, then their slots are emptied.
	halted []int32

	ws         []worker
	round      int
	inline     bool // sticky: the active list never grows back
	batchLimit int
	timed      bool // record per-worker busy time (tracing on, pooled engine)

	cursor atomic.Int64
	step   func(worker int) // stepPhase, bound once so rounds allocate nothing
	phase  func(worker int) // body of the phase currently dispatched
	// start is per-worker so that each dispatch wakes every worker exactly
	// once; from a shared channel one worker could take two tokens while
	// another slept through the phase.
	start []chan struct{}
	done  chan any // nil or recovered panic value per worker
	stop  chan struct{}
}

func newEngine(nw *Network) *engine {
	g := nw.G
	n := g.N()
	batchLimit := BatchThreshold
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if n <= batchLimit {
		// The whole execution is below the fusion threshold: every round will
		// run inline, so don't spin up pool goroutines at all.
		workers = 1
	}
	if workers < 1 {
		workers = 1
	}
	offsets, nbrs := g.CSR()
	e := &engine{
		offsets:    offsets,
		nbrs:       nbrs,
		mirror:     g.Mirror(),
		progs:      make([]Program, n),
		outs:       [2][][]Outbound{make([][]Outbound, n), make([][]Outbound, n)},
		active:     make([]int32, n),
		halts:      make([]bool, n),
		ws:         make([]worker, workers),
		inline:     workers == 1,
		batchLimit: batchLimit,
		start:      make([]chan struct{}, workers),
		done:       make(chan any, workers),
		stop:       make(chan struct{}),
	}
	for v := range e.active {
		e.active[v] = int32(v)
	}
	// Size each chunk's arena for one message per node and each inbox for
	// one per neighbour, so the common one-broadcast-per-step program never
	// grows a buffer. Each arena is capped at its own region of one backing
	// array: an outbox that overflows it moves that chunk's arena elsewhere
	// instead of spilling into the next chunk's region.
	for w := range e.ws {
		e.ws[w].inbox = make([]Inbound, 0, g.MaxDegree())
	}
	chunks := (n + workerChunk - 1) / workerChunk
	for gen := range e.arenas {
		backing := make([]Outbound, n)
		e.arenas[gen] = make([][]Outbound, chunks)
		for c := range e.arenas[gen] {
			lo := c * workerChunk
			e.arenas[gen][c] = backing[lo:lo:min(lo+workerChunk, n)]
		}
	}
	e.step = e.stepPhase
	if workers == 1 {
		return e
	}
	for w := 0; w < workers; w++ {
		e.start[w] = make(chan struct{}, 1)
		go func(w int) {
			for {
				select {
				case <-e.start[w]:
					e.done <- e.runWorker(w)
				case <-e.stop:
					return
				}
			}
		}(w)
	}
	return e
}

func (e *engine) close() { close(e.stop) }

// runWorker executes the dispatched phase, forwarding a recovered panic so
// Program bugs surface on the coordinating goroutine as they always have.
func (e *engine) runWorker(w int) (panicked any) {
	defer func() { panicked = recover() }()
	e.phase(w)
	return nil
}

// runPhase runs f on every pool worker and blocks until all finish. The
// start/done channel pair orders the coordinator's writes (phase, round,
// active list, slot clears) before the workers' reads and vice versa.
func (e *engine) runPhase(f func(worker int)) {
	e.phase = f
	e.cursor.Store(0)
	for w := range e.ws {
		e.start[w] <- struct{}{}
	}
	var panicked any
	for range e.ws {
		if p := <-e.done; p != nil {
			panicked = p
		}
	}
	if panicked != nil {
		panic(panicked)
	}
}

// runRound executes one synchronous round — on the pool, or inline once the
// active list fits under batchLimit — then compacts the active list.
func (e *engine) runRound() {
	if !e.inline && len(e.active) <= e.batchLimit {
		e.inline = true
	}
	if e.inline {
		for c := 0; c*workerChunk < len(e.active); c++ {
			e.stepChunk(&e.ws[0], c)
		}
	} else {
		e.runPhase(e.step)
	}
	// The generation the next round writes holds this round's inputs, now
	// consumed. Nodes that will not write it again must not leave stale
	// outboxes there: last round's halters (whose final outboxes were just
	// gathered) and this round's (whose previous outboxes were).
	next := e.outs[(e.round+1)&1]
	for _, v := range e.halted {
		next[v] = nil
	}
	e.halted = e.halted[:0]
	kept := e.active[:0]
	for _, v := range e.active {
		if e.halts[v] {
			next[v] = nil
			e.halted = append(e.halted, v)
		} else {
			kept = append(kept, v)
		}
	}
	e.active = kept
}

// stepPhase is worker w's share of a pooled round: claim chunks of the
// active list and step their nodes.
func (e *engine) stepPhase(w int) {
	wk := &e.ws[w]
	var t0 time.Time
	if e.timed {
		t0 = time.Now()
	}
	for {
		c := int(e.cursor.Add(1) - 1)
		if c*workerChunk >= len(e.active) {
			break
		}
		e.stepChunk(wk, c)
	}
	if e.timed {
		wk.busyNs += time.Since(t0).Nanoseconds()
	}
}

// stepChunk gathers, steps and records the outbox of each node of chunk c,
// using worker wk's inbox scratch and the chunk's arena. Pooled and inline
// rounds both run it. A Broadcast on a degree-0 vertex counts nothing; any
// other out-of-range port is a Program bug and panics, including ports on
// degree-0 vertices where no send is valid.
func (e *engine) stepChunk(wk *worker, c int) {
	gen := e.round & 1
	cur, prev := e.outs[gen], e.outs[gen^1]
	arena := e.arenas[gen][c][:0]
	first := c * workerChunk
	vs := e.active[first:min(first+workerChunk, len(e.active))]
	count := 0
	for _, v32 := range vs {
		v := int(v32)
		lo, hi := e.offsets[v], e.offsets[v+1]
		inbox := wk.inbox[:0]
		for i := lo; i < hi; i++ {
			for _, o := range prev[e.nbrs[i]] {
				if o.Port == Broadcast || o.Port == int(e.mirror[i]) {
					inbox = append(inbox, Inbound{Port: int(i - lo), Msg: o.Msg})
				}
			}
		}
		wk.inbox = inbox
		out, halt := e.progs[v].Step(e.round, inbox)
		e.halts[v] = halt
		if len(out) == 0 {
			cur[v] = nil
			continue
		}
		// Copy the outbox: the program may reuse its slice next round, while
		// the neighbours gather from this copy.
		deg := int(hi - lo)
		start := len(arena)
		for _, o := range out {
			if o.Port == Broadcast {
				count += deg
			} else if o.Port < 0 || o.Port >= deg {
				panic(fmt.Sprintf("local: node %d (degree %d) sent to invalid port %d", v, deg, o.Port))
			} else {
				count++
			}
			arena = append(arena, o)
		}
		cur[v] = arena[start:len(arena):len(arena)]
	}
	e.arenas[gen][c] = arena
	wk.msgs += count
}

// roundMessages drains the per-worker send counters into the round's total.
// The sum is independent of which worker stepped which node.
func (e *engine) roundMessages() int {
	total := 0
	for w := range e.ws {
		total += e.ws[w].msgs
		e.ws[w].msgs = 0
	}
	return total
}

// outputs collects every node's Output in a chunked pool phase. Programs
// are independent state machines, so reading them in parallel is safe; slot
// v is written by exactly one worker.
func (e *engine) outputs() []any {
	n := len(e.progs)
	out := make([]any, n)
	if len(e.ws) == 1 {
		for v := 0; v < n; v++ {
			out[v] = e.progs[v].Output()
		}
		return out
	}
	e.runPhase(func(int) {
		for {
			lo := e.cursor.Add(workerChunk) - workerChunk
			if lo >= int64(n) {
				return
			}
			hi := lo + workerChunk
			if hi > int64(n) {
				hi = int64(n)
			}
			for v := lo; v < hi; v++ {
				out[v] = e.progs[v].Output()
			}
		}
	})
	return out
}

// RunSync executes one Program instance per node until every node halts (or
// maxRounds elapses, an error). It returns each node's Output and charges
// the ledger under the given phase name.
//
// Execution engine: a pull-based message plane over a bounded pool of
// min(GOMAXPROCS, n) long-lived workers (see engine). Each round is one pool
// phase in which every active node gathers its inbox from its neighbours'
// previous-round outboxes, walking its sorted CSR row, and then steps. The
// gather reads only the previous round's outbox copies, so no two workers
// ever write the same buffer, and the inbox order — ascending sender vertex,
// then the sender's outbox order, tagged with receiver-side ports from the
// graph's CSR mirror array (graph.Mirror) — is a pure function of the
// graph: executions are deterministic for deterministic programs at any
// GOMAXPROCS. A gather costs, per neighbour, the length of that neighbour's
// outbox; the engine is built for broadcast-style programs, and a node that
// sends many port messages makes every neighbour scan all of them.
//
// Messages are counted when sent: a Broadcast counts once per neighbour, a
// port send once, including messages to neighbours that have halted (which
// never gather them). A node's inbox slice is only valid during its Step;
// the outbox slice it returns is copied, so a program may reuse it.
//
// Factory and Init run on the calling goroutine. Step and Output run on
// pool workers — at most one per node at a time, so a Program needs no
// internal locking, but distinct nodes' Programs must not share mutable
// state.
//
// Round accounting follows the standard send/receive convention: messages
// sent in step k are received at the end of round k and consumed by step
// k+1, so an execution of S steps corresponds to S-1 communication rounds
// (the final step is the output phase).
//
// maxRounds — in practice the algorithm's declared RoundBound(n, maxDeg)
// from the registry — caps the execution, and together with the live
// active-list size drives round batching: bounded long-tail executions
// (one color class active per round for Δ²-scale rounds, say) spend almost
// all their rounds below the BatchThreshold fusion cutoff, where the engine
// runs them inline with no per-round pool wake-ups at all. Fusion never
// changes outputs, charges, or message counts, only scheduling.
//
// Cancellation is cooperative and per-round: ctx is checked at the top of
// every round, so a cancelled execution stops within one round, returns
// ctx.Err(), and leaves no worker goroutines behind (the pool is torn down
// on every return path). Partial executions charge nothing to the ledger.
func RunSync(ctx context.Context, nw *Network, ledger *Ledger, phase string, maxRounds int,
	factory func(v int) Program) ([]any, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := nw.G.N()
	e := newEngine(nw)
	defer e.close()
	var trace *RoundTrace
	if ledger != nil {
		trace = ledger.Trace
	}
	e.timed = trace != nil && !e.inline
	for v := 0; v < n; v++ {
		e.progs[v] = factory(v)
		e.progs[v].Init(NodeInfo{V: v, ID: nw.ID[v], Degree: nw.G.Degree(v), N: n})
	}
	rounds := 0
	for e.round = 1; len(e.active) > 0; e.round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if e.round > maxRounds {
			return nil, fmt.Errorf("local: exceeded maxRounds=%d in phase %q", maxRounds, phase)
		}
		active := len(e.active)
		rounds++
		e.runRound()
		msgs := e.roundMessages()
		if ledger != nil {
			ledger.recordRoundMessages(msgs)
			if trace != nil {
				trace.engineRound(phase, active, msgs)
			}
		}
	}
	if e.timed {
		busy := make([]int64, len(e.ws))
		for w := range e.ws {
			busy[w] = e.ws[w].busyNs
		}
		trace.shardDelivery(phase, busy)
	}
	if ledger != nil {
		charge := rounds - 1
		if charge < 0 {
			charge = 0
		}
		ledger.Charge(phase, charge)
	}
	return e.outputs(), nil
}
