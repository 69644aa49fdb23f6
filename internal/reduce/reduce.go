// Package reduce implements the classic distributed color-reduction
// subroutines used by the paper and its baselines:
//
//   - Linial's O(Δ²)-coloring in O(log* n) rounds (polynomial set systems
//     over finite fields);
//   - one-class-per-round reduction down to Δ+1 colors;
//   - Cole–Vishkin 3-coloring of rooted forests (shift-down + reduce);
//   - the simple randomized (deg+1)-list-coloring (Question 6.2 remark).
//
// Implementations execute centrally but charge exact LOCAL round counts to
// the ledger (see internal/local for the simulation argument); the
// randomized algorithm is additionally implemented as genuine message-
// passing node programs.
//
// The (Δ+1) schedule (LinialColorList, DegPlusOneList) works on a vertex
// list: it builds the induced subgraph of the listed vertices and keeps
// every per-vertex array — colors, 16-bit polynomial digits, class order —
// indexed by position in the list, so scheduling a small layer of a large
// graph costs what the layer costs. Remainders mod the Linial prime use a
// precomputed multiplier instead of a division, and the classes above Δ
// are counting-sorted. LinialColor and DegPlusOne are mask front ends
// over the same code.
package reduce

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"

	"distcolor/internal/graph"
	"distcolor/internal/local"
)

// Uncolored marks an uncolored vertex.
const Uncolored = -1

// smallPrimes returns the first primes ≥ 2 up to limit via a sieve.
func primesUpTo(limit int) []int {
	if limit < 2 {
		return nil
	}
	sieve := make([]bool, limit+1)
	var out []int
	for p := 2; p <= limit; p++ {
		if !sieve[p] {
			out = append(out, p)
			for q := p * p; q <= limit; q += p {
				sieve[q] = true
			}
		}
	}
	return out
}

// linialPrime finds the smallest prime q such that q > d·t where
// t = ⌈log_q k⌉ (the polynomial degree bound +1). Returns q and t.
func linialPrime(k, d int) (int, int) {
	limit := 4 * (d + 2) * (bitsLen(k) + 2)
	for {
		for _, q := range primesUpTo(limit) {
			t := 1
			pow := q
			for pow < k {
				pow *= q
				t++
			}
			if q > d*t {
				return q, t
			}
		}
		limit *= 2
	}
}

func bitsLen(k int) int {
	n := 0
	for k > 0 {
		k >>= 1
		n++
	}
	return n
}

// digitsBaseQ returns the t base-q digits of c (little-endian), i.e. the
// coefficients of vertex c's polynomial.
func digitsBaseQ(c, q, t int) []int {
	out := make([]int, t)
	for i := 0; i < t; i++ {
		out[i] = c % q
		c /= q
	}
	return out
}

func evalPoly(coeffs []int, x, q int) int {
	val := 0
	for i := len(coeffs) - 1; i >= 0; i-- {
		val = (val*x + coeffs[i]) % q
	}
	return val
}

// fastmod computes a mod q without a division (Lemire, Kaser and Kurz,
// "Faster remainder by direct computation", 2019): with m = ⌈2⁶⁴/q⌉ the
// remainder is the high word of (m·a mod 2⁶⁴)·q, exact for all 32-bit a
// and q. The Linial loop stays inside that range: it only iterates while
// q² < k ≤ n < 2³¹, so digits fit 16 bits and val·x + digit < 2³².
type fastmod struct {
	m uint64
	q uint32
}

func newFastmod(q int) fastmod { return fastmod{m: ^uint64(0)/uint64(q) + 1, q: uint32(q)} }

func (f fastmod) mod(a uint32) uint32 {
	hi, _ := bits.Mul64(f.m*uint64(a), uint64(f.q))
	return uint32(hi)
}

// eval evaluates the polynomial with little-endian coefficients (each
// below q) at x over F_q (Horner).
func (f fastmod) eval(coeffs []uint16, x uint32) uint32 {
	if x == 0 {
		return uint32(coeffs[0]) // most vertices settle on x = 0
	}
	val := uint32(0)
	for i := len(coeffs) - 1; i >= 0; i-- {
		val = f.mod(val*x + uint32(coeffs[i]))
	}
	return val
}

// induced returns G[verts] for the schedule. Its vertex i is verts[i], so
// every per-vertex array below is indexed by position in verts.
func induced(g *graph.Graph, verts []int) *graph.Graph {
	sub, _, err := g.Induced(verts)
	if err != nil {
		panic("reduce: schedule vertices must be distinct and in range: " + err.Error())
	}
	return sub
}

// LinialColorList computes an O(Δ²·log²Δ)-ish coloring of G[verts] in
// O(log* n) LOCAL rounds: starting from the IDs (palette n), each iteration
// maps a palette of size k to q² where q is the Linial prime for (k, Δ).
// It stops when the palette stops shrinking and returns the coloring,
// indexed like verts, along with the final palette size. Colors lie in
// [0, palette). verts must be distinct; the work is O(|verts| + the edges
// among them) per iteration, whatever n is.
func LinialColorList(nw *local.Network, ledger *local.Ledger, phase string, verts []int) ([]int, int) {
	return linial(nw, ledger, phase, verts, induced(nw.G, verts))
}

func linial(nw *local.Network, ledger *local.Ledger, phase string, verts []int, sub *graph.Graph) ([]int, int) {
	d := sub.MaxDegree()
	colors := make([]int, len(verts))
	if d == 0 {
		// no edges: one color suffices, zero rounds
		return colors, 1
	}
	for i, v := range verts {
		colors[i] = nw.ID[v] - 1 // palette [0, n)
	}
	k := nw.G.N()
	var digits []uint16
	next := make([]int, len(verts))
	for {
		q, t := linialPrime(k, d)
		if q*q >= k {
			return colors, k
		}
		fm := newFastmod(q)
		// Every vertex's polynomial coefficients (its base-q digits), t
		// per vertex in one flat array, so the O(deg·q) candidate loop
		// below does no per-neighbor allocation.
		digits = slices.Grow(digits[:0], len(verts)*t)[:len(verts)*t]
		for i, c := range colors {
			for j := 0; j < t; j++ {
				digits[i*t+j] = uint16(c % q)
				c /= q
			}
		}
		for i := range verts {
			pv := digits[i*t : (i+1)*t]
			x := -1
			for cand := uint32(0); cand < uint32(q); cand++ {
				ev := fm.eval(pv, cand)
				ok := true
				for _, j := range sub.Neighbors(i) {
					if colors[j] != colors[i] && fm.eval(digits[int(j)*t:(int(j)+1)*t], cand) == ev {
						ok = false
						break
					}
				}
				if ok {
					x = int(cand)
					break
				}
			}
			if x < 0 {
				panic("reduce: Linial selection failed — prime too small (internal bug)")
			}
			next[i] = x*q + int(fm.eval(pv, uint32(x)))
		}
		colors, next = next, colors
		k = q * q
		if ledger != nil {
			ledger.Charge(phase, 1)
		}
	}
}

// reduceToMaxDegPlusOne takes a proper coloring of sub with palette
// [0, k) and reduces it in place to the palette [0, Δ(sub)] by recoloring
// one color class per round (classes are independent sets, so all members
// recolor simultaneously). Charges max(0, k-(Δ+1)) rounds. Every vertex
// ends with a color in [0, deg(v)] ⊆ [0, Δ].
func reduceToMaxDegPlusOne(sub *graph.Graph, ledger *local.Ledger, phase string, colors []int, k int) {
	d := sub.MaxDegree()
	if k-1 < d+1 {
		return
	}
	// A vertex only changes color when its own class is processed (to a
	// color ≤ d < d+1), so ordering the recoloring vertices by incoming
	// class, highest first, visits each class exactly when its round
	// comes.
	order := classOrder(colors, d+1, k)
	used := graph.AcquireBitset(d + 1)
	defer graph.ReleaseBitset(used)
	for _, i := range order {
		used.Reset(d + 1)
		for _, j := range sub.Neighbors(int(i)) {
			if c := colors[j]; c <= d {
				used.Set(c)
			}
		}
		picked := used.FirstZero()
		if picked > d {
			panic("reduce: no free color ≤ Δ (internal bug)")
		}
		colors[i] = picked
	}
	if ledger != nil {
		ledger.Charge(phase, k-1-d)
	}
}

// classOrder returns the positions i with lo ≤ colors[i] < k, by color
// descending and, within a color, ascending position: a counting sort in
// O(k − lo + len(colors)).
func classOrder(colors []int, lo, k int) []int32 {
	span := k - lo
	start := make([]int32, span+1) // start[k-1-c]: class c's next slot
	for _, c := range colors {
		if c >= lo {
			start[k-1-c+1]++
		}
	}
	for i := 1; i <= span; i++ {
		start[i] += start[i-1]
	}
	order := make([]int32, start[span])
	for i, c := range colors {
		if c >= lo {
			slot := &start[k-1-c]
			order[*slot] = int32(i)
			*slot++
		}
	}
	return order
}

// DegPlusOneList produces a proper coloring of G[verts], indexed like
// verts, with colors in [0, Δ(G[verts])] (at most Δ+1 colors) in
// O(log* n + Δ² log Δ) LOCAL rounds: Linial reduction followed by
// class-by-class reduction. Its cost is that of verts and the edges among
// them, whatever n is.
func DegPlusOneList(nw *local.Network, ledger *local.Ledger, phase string, verts []int) []int {
	sub := induced(nw.G, verts)
	colors, k := linial(nw, ledger, phase+"/linial", verts, sub)
	reduceToMaxDegPlusOne(sub, ledger, phase+"/reduce", colors, k)
	return colors
}

// LinialColor is LinialColorList over the masked vertices (nil = all),
// with the colors spread to an n-sized array; unmasked vertices read
// Uncolored.
func LinialColor(nw *local.Network, ledger *local.Ledger, phase string, mask []bool) ([]int, int) {
	verts := maskVertices(mask, nw.G.N())
	colors, k := LinialColorList(nw, ledger, phase, verts)
	return spread(colors, verts, nw.G.N()), k
}

// DegPlusOne is DegPlusOneList over the masked vertices (nil = all), with
// the colors spread to an n-sized array; unmasked vertices read Uncolored.
func DegPlusOne(nw *local.Network, ledger *local.Ledger, phase string, mask []bool) []int {
	verts := maskVertices(mask, nw.G.N())
	return spread(DegPlusOneList(nw, ledger, phase, verts), verts, nw.G.N())
}

func maskVertices(mask []bool, n int) []int {
	verts := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if mask == nil || mask[v] {
			verts = append(verts, v)
		}
	}
	return verts
}

func spread(colors, verts []int, n int) []int {
	out := make([]int, n)
	for v := range out {
		out[v] = Uncolored
	}
	for i, v := range verts {
		out[v] = colors[i]
	}
	return out
}

// VerifyMaskColoring checks properness over the masked graph.
func VerifyMaskColoring(g *graph.Graph, mask []bool, colors []int) error {
	for v := 0; v < g.N(); v++ {
		if mask != nil && !mask[v] {
			continue
		}
		if colors[v] < 0 {
			return fmt.Errorf("reduce: vertex %d uncolored", v)
		}
		for _, w32 := range g.Neighbors(v) {
			w := int(w32)
			if mask != nil && !mask[w] {
				continue
			}
			if colors[w] == colors[v] {
				return fmt.Errorf("reduce: edge (%d,%d) monochromatic", v, w)
			}
		}
	}
	return nil
}

// RandomizedListColor runs the simple randomized (deg+1)-list-coloring as
// genuine message-passing node programs: every uncolored node proposes a
// uniform color from its remaining list each round and keeps it if no
// neighbor proposed or holds the same color; finalized colors are removed
// from neighbors' lists. Requires |lists[v]| ≥ deg(v)+1. Completes in
// O(log n) rounds with high probability; maxRounds bounds the run.
func RandomizedListColor(ctx context.Context, nw *local.Network, ledger *local.Ledger, phase string,
	lists [][]int, seed uint64, maxRounds int) ([]int, error) {
	g := nw.G
	for v := 0; v < g.N(); v++ {
		if len(lists[v]) < g.Degree(v)+1 {
			return nil, fmt.Errorf("reduce: vertex %d list %d < deg+1=%d", v, len(lists[v]), g.Degree(v)+1)
		}
	}
	outs, err := local.RunSync(ctx, nw, ledger, phase, maxRounds, func(v int) local.Program {
		return &randColorProgram{list: append([]int(nil), lists[v]...), seed: seed}
	})
	if err != nil {
		return nil, err
	}
	colors := make([]int, g.N())
	for v, o := range outs {
		c, ok := o.(int)
		if !ok || c == Uncolored {
			return nil, fmt.Errorf("reduce: node %d failed to color", v)
		}
		colors[v] = c
	}
	return colors, nil
}

type randColorProgram struct {
	info  local.NodeInfo
	list  []int
	rng   *rand.Rand
	seed  uint64
	color int
	cand  int
}

type randColorMsg struct {
	candidate int
	final     bool
}

func (p *randColorProgram) Init(info local.NodeInfo) {
	p.info = info
	p.rng = rand.New(rand.NewPCG(p.seed, uint64(info.ID)))
	p.color = Uncolored
	p.cand = Uncolored
}

func (p *randColorProgram) Step(round int, inbox []local.Inbound) ([]local.Outbound, bool) {
	// Process last round's proposals/finalizations.
	conflict := false
	for _, in := range inbox {
		m := in.Msg.(randColorMsg)
		if m.final {
			// remove neighbor's final color from our list
			for i, c := range p.list {
				if c == m.candidate {
					p.list = append(p.list[:i], p.list[i+1:]...)
					break
				}
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
		return nil, true // already announced final color last round
	}
	if p.cand != Uncolored && !conflict {
		// our previous proposal survived: finalize and announce
		p.color = p.cand
		return []local.Outbound{{Port: local.Broadcast, Msg: randColorMsg{candidate: p.color, final: true}}}, false
	}
	// propose anew
	if len(p.list) == 0 {
		// cannot happen with deg+1 lists
		panic("reduce: randomized coloring ran out of colors")
	}
	p.cand = p.list[p.rng.IntN(len(p.list))]
	return []local.Outbound{{Port: local.Broadcast, Msg: randColorMsg{candidate: p.cand}}}, false
}

func (p *randColorProgram) Output() any { return p.color }
