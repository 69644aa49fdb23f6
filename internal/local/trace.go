package local

import (
	"sort"
	"time"
)

// traceSampleCap bounds the retained per-phase round samples. When a phase
// exceeds it, the recorder compacts deterministically: it keeps every other
// retained sample and doubles the sampling stride, so a million-round phase
// retains ≤ traceSampleCap evenly strided samples and the retained set is a
// pure function of the round sequence (no randomness, no clock).
const traceSampleCap = 512

// RoundSample is one retained engine round inside a phase: the active-list
// size going into the round and the messages sent in it.
type RoundSample struct {
	// Round is the 1-based engine round index within the phase.
	Round int `json:"round"`
	// Active is the number of non-halted nodes stepping this round.
	Active int `json:"active"`
	// Messages is the number of point-to-point messages sent.
	Messages int `json:"messages"`
}

// tracePhase accumulates one phase name's trace: rounds come exclusively
// from ledger charges (so totals match Ledger.ByPhase exactly); engine
// rounds, messages, samples and per-worker timings come from the
// message-passing engine and are informational.
type tracePhase struct {
	name         string
	rounds       int
	engineRounds int
	messages     int
	maxActive    int
	stride       int
	samples      []RoundSample
	shardNs      []int64

	// Wall-clock attribution (informational, nondeterministic like
	// shardNs): firstNs/lastNs bound the phase's activity, busyNs sums the
	// charge-to-charge intervals attributed to it (see RoundTrace.charge).
	firstNs int64
	lastNs  int64
	busyNs  int64
}

// RoundTrace records the execution profile of one run: per-phase round
// totals fed by every Ledger.Charge, plus — for phases driven by the
// message-passing engine — per-round message counts and active-list sizes
// and per-worker busy time. Attach one to a Ledger (Ledger.Trace)
// before the run; the zero value is ready to use.
//
// A RoundTrace is owned by the goroutine executing the run (the same one
// that charges the ledger): it needs no locking, and readers must wait for
// the run to finish — or, like progress observers, read synchronously from
// a ledger callback.
type RoundTrace struct {
	phases []*tracePhase
	byName map[string]*tracePhase
	rounds int
	msgs   int
	lastT  time.Time
}

// Begin stamps the trace's wall clock so the first charge's interval is
// measured from run start rather than from trace construction. Optional:
// without it the first charged interval is simply unattributed.
func (t *RoundTrace) Begin() { t.lastT = time.Now() }

func (t *RoundTrace) phase(name string) *tracePhase {
	if t.byName == nil {
		t.byName = map[string]*tracePhase{}
	}
	p := t.byName[name]
	if p == nil {
		p = &tracePhase{name: name, stride: 1}
		t.byName[name] = p
		t.phases = append(t.phases, p)
	}
	return p
}

// charge records a ledger charge. Called by Ledger.Charge for every charge
// — including zero-round ones, which still create a phase entry, mirroring
// Ledger.ByPhase.
func (t *RoundTrace) charge(phase string, rounds int) {
	p := t.phase(phase)
	p.rounds += rounds
	t.rounds += rounds
	// Attribute the wall-clock interval since the previous charge (or
	// Begin) to the charged phase: charges happen at phase boundaries, so
	// the elapsed time since the last one is the work just charged.
	now := time.Now()
	if !t.lastT.IsZero() {
		ns := now.UnixNano()
		if p.firstNs == 0 {
			p.firstNs = t.lastT.UnixNano()
		}
		p.lastNs = ns
		p.busyNs += now.Sub(t.lastT).Nanoseconds()
	}
	t.lastT = now
}

// engineRound records one executed engine round: active nodes going in,
// messages sent by it. Sampling is strided once the phase
// outgrows traceSampleCap (see the constant).
func (t *RoundTrace) engineRound(phase string, active, messages int) {
	p := t.phase(phase)
	p.engineRounds++
	p.messages += messages
	t.msgs += messages
	if active > p.maxActive {
		p.maxActive = active
	}
	if (p.engineRounds-1)%p.stride != 0 {
		return
	}
	if len(p.samples) == traceSampleCap {
		kept := p.samples[:0]
		for i := 0; i < traceSampleCap; i += 2 {
			kept = append(kept, p.samples[i])
		}
		p.samples = kept
		p.stride *= 2
		if (p.engineRounds-1)%p.stride != 0 {
			return
		}
	}
	p.samples = append(p.samples, RoundSample{Round: p.engineRounds, Active: active, Messages: messages})
}

// shardDelivery folds one engine execution's per-worker busy-time totals
// (nanoseconds, index = worker) into the phase. Phases executed by engines
// of different worker counts accumulate into the longest vector.
func (t *RoundTrace) shardDelivery(phase string, ns []int64) {
	p := t.phase(phase)
	if len(ns) > len(p.shardNs) {
		grown := make([]int64, len(ns))
		copy(grown, p.shardNs)
		p.shardNs = grown
	}
	for i, v := range ns {
		p.shardNs[i] += v
	}
}

// Rounds returns the total rounds charged so far (live; equals
// Ledger.Rounds for the ledgers feeding this trace).
func (t *RoundTrace) Rounds() int { return t.rounds }

// Messages returns the total engine messages recorded so far (live; equals
// Ledger.Messages when a single ledger feeds the trace).
func (t *RoundTrace) Messages() int { return t.msgs }

// ShardTrace is one engine worker's accumulated timing within a phase. Its
// names are part of the trace's JSON schema: an entry is a pool worker, not
// a receiver shard — the engine has none.
type ShardTrace struct {
	// Shard is the pool worker index.
	Shard int `json:"shard"`
	// DeliverNs is the total wall-clock nanoseconds this worker was busy in
	// pooled rounds: gathering inboxes, stepping nodes and copying their
	// outboxes. Timings are measured, not simulated: they vary run-to-run
	// even though everything else in a trace is deterministic.
	DeliverNs int64 `json:"deliver_ns"`
}

// PhaseTrace is one phase of a TraceReport.
type PhaseTrace struct {
	// Phase is the phase name, as charged to the ledger.
	Phase string `json:"phase"`
	// Rounds is the total LOCAL rounds charged to the phase — summed
	// across repeats, exactly Ledger.ByPhase.
	Rounds int `json:"rounds"`
	// EngineRounds counts the message-passing engine rounds executed under
	// this phase name (0 for centrally simulated phases). An S-step engine
	// execution charges S−1 LOCAL rounds, so EngineRounds can exceed
	// Rounds by one per execution.
	EngineRounds int `json:"engine_rounds,omitempty"`
	// Messages is the total messages sent under this phase.
	Messages int `json:"messages,omitempty"`
	// MaxActive is the largest active-list size observed.
	MaxActive int `json:"max_active,omitempty"`
	// SampleStride is the per-round sampling stride (1 = every round
	// retained; doubles as the phase outgrows the sample cap).
	SampleStride int `json:"sample_stride,omitempty"`
	// Samples holds the retained per-round records.
	Samples []RoundSample `json:"samples,omitempty"`
	// Shards holds per-worker busy time (multi-worker executions only; a
	// single-worker engine has nothing to balance and records none).
	Shards []ShardTrace `json:"shards,omitempty"`
	// StartUnixNs/EndUnixNs bound the phase's wall-clock activity and
	// WallNs sums the charge intervals attributed to it. Like worker
	// timings these are measured, not simulated: informational riders that
	// vary run-to-run while everything else stays deterministic. Present
	// only when the trace's clock was started (RoundTrace.Begin).
	StartUnixNs int64 `json:"start_unix_ns,omitempty"`
	EndUnixNs   int64 `json:"end_unix_ns,omitempty"`
	WallNs      int64 `json:"wall_ns,omitempty"`
}

// TraceReport is the wire form of a completed run's trace — the schema
// served by GET /v1/jobs/{id}/trace and written by `distcolor -trace`.
type TraceReport struct {
	// Algorithm is the wire name of the algorithm that ran.
	Algorithm string `json:"algorithm"`
	// Rounds is the run's total LOCAL rounds (== Coloring.Rounds).
	Rounds int `json:"rounds"`
	// Messages is the run's total engine messages (== Coloring.Messages).
	Messages int `json:"messages"`
	// ShardImbalance is max/mean of per-worker busy time (ShardTrace
	// DeliverNs) across all phases, ≥ 1 when timings were recorded and 0
	// otherwise. A value near 1 means chunk claiming keeps the pool evenly
	// loaded; a large one means some workers sat idle at round barriers.
	ShardImbalance float64 `json:"shard_imbalance,omitempty"`
	// Phases is the per-phase breakdown, ordered like Ledger.ByPhase
	// (descending rounds, then name).
	Phases []PhaseTrace `json:"phases"`
	// TraceID is the distributed-trace ID of the request that ran this
	// job, when one was active. Assigned by the caller that owns the
	// span (serve layer / CLI), not by the engine.
	TraceID string `json:"trace_id,omitempty"`
}

// Report builds the wire report. Phase order and round totals match
// Ledger.ByPhase exactly; samples and timings ride along.
func (t *RoundTrace) Report(algorithm string) *TraceReport {
	rep := &TraceReport{
		Algorithm: algorithm,
		Rounds:    t.rounds,
		Messages:  t.msgs,
		Phases:    make([]PhaseTrace, 0, len(t.phases)),
	}
	var totalNs, maxNs int64
	var nShards int
	for _, p := range t.phases {
		pt := PhaseTrace{
			Phase:        p.name,
			Rounds:       p.rounds,
			EngineRounds: p.engineRounds,
			Messages:     p.messages,
			MaxActive:    p.maxActive,
			StartUnixNs:  p.firstNs,
			EndUnixNs:    p.lastNs,
			WallNs:       p.busyNs,
		}
		if len(p.samples) > 0 {
			pt.SampleStride = p.stride
			pt.Samples = append([]RoundSample(nil), p.samples...)
		}
		for s, ns := range p.shardNs {
			pt.Shards = append(pt.Shards, ShardTrace{Shard: s, DeliverNs: ns})
		}
		rep.Phases = append(rep.Phases, pt)
	}
	sort.SliceStable(rep.Phases, func(i, j int) bool {
		if rep.Phases[i].Rounds != rep.Phases[j].Rounds {
			return rep.Phases[i].Rounds > rep.Phases[j].Rounds
		}
		return rep.Phases[i].Phase < rep.Phases[j].Phase
	})
	// Worker imbalance across the whole run: fold every phase's per-worker
	// totals into one vector keyed by worker index.
	var byShard []int64
	for _, p := range t.phases {
		for s, ns := range p.shardNs {
			for s >= len(byShard) {
				byShard = append(byShard, 0)
			}
			byShard[s] += ns
		}
	}
	for _, ns := range byShard {
		totalNs += ns
		if ns > maxNs {
			maxNs = ns
		}
		nShards++
	}
	if nShards > 0 && totalNs > 0 {
		rep.ShardImbalance = float64(maxNs) * float64(nShards) / float64(totalNs)
	}
	return rep
}
