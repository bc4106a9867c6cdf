// Package ring implements the negacyclic polynomial ring
// R_q = Z_q[X]/(X^N + 1) in residue-number-system (RNS) form, the
// computational substrate of the BFV and CKKS schemes. It provides the
// number-theoretic transform (NTT) with Shoup-precomputed twiddles,
// coefficient-wise arithmetic, Galois automorphisms (the basis of
// encrypted rotation), and exact CRT composition/decomposition to
// math/big integers for the scheme operations that need the full
// coefficient value (decryption scaling, tensor-product scaling, and
// noise measurement).
package ring

import (
	"fmt"
	"math/big"
	"math/bits"
	"sync"

	"choco/internal/nt"
	"choco/internal/par"
)

// Residue-level parallelism thresholds: an operation fans its residue
// rows out across the par worker pool only when level × N (the total
// coefficient count it touches) reaches the threshold for its cost
// class. One pool handoff costs ~1-2 µs per helper; the thresholds were
// set when an NTT row at N=4096 was measured at ~150 µs against ~4 µs for
// an Add row, so transforms paid off from ~8k coefficients and cheap
// coefficient-wise loops only from ~32k. The vector kernels have since
// cut the NTT row to ~7 µs (IFMA, 36-bit prime, one core of a 2-vCPU
// x86-64 VM) and the thresholds were not re-tuned. Override with
// SetParallelThresholds for benchmarking or to force the parallel paths
// in tests.
var (
	parMinTransform  = 8 << 10  // NTT, INTT, Automorphism
	parMinCoeffwise  = 16 << 10 // MulCoeffs, the Shoup inner product, MulScalar
	parMinElementary = 32 << 10 // Add, Sub, Neg
)

// SetParallelThresholds overrides the level×N coefficient counts above
// which ring operations fan out across the par pool: transform covers
// NTT/INTT/Automorphism, mul the coefficient-wise products, elementary
// the additive ops. Values <= 0 leave the corresponding threshold
// unchanged. Intended for benchmarks and tests (a tiny test ring never
// crosses the production thresholds).
func SetParallelThresholds(transform, mul, elementary int) {
	if transform > 0 {
		parMinTransform = transform
	}
	if mul > 0 {
		parMinCoeffwise = mul
	}
	if elementary > 0 {
		parMinElementary = elementary
	}
}

// parRows runs fn(i) for each residue row i in [0, rows), fanning out
// across the worker pool when the total coefficient count clears the
// threshold. Rows are fully independent in every RNS operation, so
// parallel and serial execution are bit-identical by construction.
func (r *Ring) parRows(rows, threshold int, fn func(i int)) {
	if rows > 1 && rows*r.N >= threshold {
		par.For(rows, fn)
		return
	}
	for i := 0; i < rows; i++ {
		fn(i)
	}
}

// Ring describes R_q for a fixed degree N and RNS modulus chain.
type Ring struct {
	N      int
	LogN   int
	Moduli []nt.Modulus

	tables []*nttTable

	// CRT precomputations over the full basis.
	bigQ     *big.Int   // product of all moduli
	halfQ    *big.Int   // floor(Q/2), for centered representatives
	qiHat    []*big.Int // Q / q_i
	qiHatInv []uint64   // (Q/q_i)^-1 mod q_i

	// pool recycles scratch polynomials of this ring's shape; see
	// GetPoly/PutPoly. Per-ring (not global) because a Poly's shape is
	// the ring's level × N.
	pool sync.Pool

	// autos caches the per-Galois-element permutation tables used by
	// Automorphism and AutomorphismNTT. Shared (by pointer) with every
	// AtLevel sub-ring: the tables depend only on N, not on the modulus
	// chain.
	autos *autoCache

	// ifma records that this ring's rows fit the AVX-512 IFMA kernels:
	// the host has them, N is a multiple of 8 and every modulus is below
	// 2^51. Fixed when the ring (or an AtLevel view) is built; useIFMA
	// adds the run-time vectorKernels switch.
	ifma bool
}

// ifmaFits reports whether the IFMA kernels are exact mod q on this
// host: Shoup's reduction at β = 2^52 leaves a remainder below 2q, which
// must stay below 2^52. It is the one rule behind both the ring's
// dyadic-kernel choice (fitsIFMA) and each NTT table's.
func ifmaFits(q uint64) bool { return ifmaAvailable() && q < 1<<51 }

// fitsIFMA reports whether the dyadic IFMA kernels serve r: every
// modulus fits them and N is a multiple of 8, one ZMM register.
func (r *Ring) fitsIFMA() bool {
	if r.N%8 != 0 {
		return false
	}
	for _, m := range r.Moduli {
		if !ifmaFits(m.Value) {
			return false
		}
	}
	return true
}

// useIFMA reports whether this call runs the IFMA kernels.
func (r *Ring) useIFMA() bool { return r.ifma && vectorKernels }

// useIFMA reports whether a row transform with t runs the IFMA stages.
func (t *nttTable) useIFMA() bool { return t.ifma && vectorKernels }

// autoCache memoizes automorphism permutation tables keyed by Galois
// element. A handful of elements recur thousands of times per kernel
// (each rotation step of each layer), so the exponent walk is paid once
// per element instead of once per call.
type autoCache struct {
	mu     sync.RWMutex
	tables map[uint64]*autoTable
}

// autoTable holds the two precomputed views of X -> X^g.
type autoTable struct {
	// coeff is the coefficient-domain permutation packed as
	// dst | sign<<63: source coefficient i lands at position dst,
	// negated when the exponent i*g wrapped past N (X^N = -1).
	coeff []uint64
	// ntt is the evaluation-domain gather: out[i] = in[ntt[i]]. In the
	// NTT domain the automorphism is a pure slot permutation (each
	// output slot evaluates the input at another 2N-th root), so no
	// signs appear.
	ntt []uint64
}

const autoSignBit = uint64(1) << 63

// automorphismTable returns (building and caching on first use) the
// permutation tables for Galois element g.
func (r *Ring) automorphismTable(g uint64) *autoTable {
	if g&1 == 0 {
		panic("ring: Galois element must be odd")
	}
	c := r.autos
	c.mu.RLock()
	tbl := c.tables[g]
	c.mu.RUnlock()
	if tbl != nil {
		return tbl
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if tbl = c.tables[g]; tbl != nil {
		return tbl
	}
	n := uint64(r.N)
	mask := 2*n - 1
	tbl = &autoTable{
		coeff: make([]uint64, n),
		ntt:   make([]uint64, n),
	}
	idx := uint64(0)
	for i := uint64(0); i < n; i++ {
		if idx >= n {
			tbl.coeff[i] = (idx - n) | autoSignBit
		} else {
			tbl.coeff[i] = idx
		}
		idx = (idx + g) & mask
	}
	// Our forward NTT stores a(psi^{2·br(i)+1}) at position i (br =
	// bit-reversal over LogN bits). Evaluating phi_g(a)(X) = a(X^g) at
	// that root gives a(psi^e) with e = g·(2·br(i)+1) mod 2N, which the
	// input holds at position bitrev((e-1)/2).
	logN := uint(r.LogN)
	for i := uint64(0); i < n; i++ {
		e := (g * (2*(bits.Reverse64(i)>>(64-logN)) + 1)) & mask
		tbl.ntt[i] = bits.Reverse64((e-1)>>1) >> (64 - logN)
	}
	c.tables[g] = tbl
	return tbl
}

// nttTable holds per-modulus NTT precomputations.
type nttTable struct {
	mod nt.Modulus
	// psiRev[i] = psi^{bitrev(i)}, psi a 2N-th primitive root; Shoup
	// companions for the hot loop.
	psiRev         []uint64
	psiRevShoup    []uint64
	psiInvRev      []uint64
	psiInvRevShoup []uint64
	nInv           uint64
	nInvShoup      uint64
	// nInvPsi = nInv·psiInvRev[1]: the inverse transform's last-stage
	// twiddle with the 1/N scaling folded in, so the final butterfly
	// pass doubles as the scaling pass.
	nInvPsi      uint64
	nInvPsiShoup uint64
	// ifma selects the AVX-512 IFMA stage kernels for this modulus
	// (ifma_amd64.s), fixed when the table is built: the modulus fits
	// them (ifmaFits) and the row holds at least 16 words, one step of
	// the t < 8 permute stages. The run-time vectorKernels switch still
	// gates them; other tables run the AVX2 stages.
	ifma bool
}

// NewRing constructs the ring of degree 2^logN with the given moduli.
// Every modulus must be an NTT-friendly prime (q ≡ 1 mod 2N).
func NewRing(logN int, moduli []uint64) (*Ring, error) {
	if logN < 2 || logN > 17 {
		return nil, fmt.Errorf("ring: unsupported logN=%d", logN)
	}
	if len(moduli) == 0 {
		return nil, fmt.Errorf("ring: empty modulus chain")
	}
	n := 1 << uint(logN)
	r := &Ring{N: n, LogN: logN}
	seen := map[uint64]bool{}
	for _, q := range moduli {
		if seen[q] {
			return nil, fmt.Errorf("ring: duplicate modulus %d", q)
		}
		seen[q] = true
		if q%(2*uint64(n)) != 1 {
			return nil, fmt.Errorf("ring: modulus %d is not 1 mod 2N", q)
		}
		if !nt.IsPrime(q) {
			return nil, fmt.Errorf("ring: modulus %d is not prime", q)
		}
		r.Moduli = append(r.Moduli, nt.NewModulus(q))
	}
	for _, m := range r.Moduli {
		tbl, err := newNTTTable(m, logN)
		if err != nil {
			return nil, err
		}
		r.tables = append(r.tables, tbl)
	}
	r.precomputeCRT()
	r.autos = &autoCache{tables: map[uint64]*autoTable{}}
	r.ifma = r.fitsIFMA()
	return r, nil
}

func (r *Ring) precomputeCRT() {
	r.bigQ = big.NewInt(1)
	for _, m := range r.Moduli {
		r.bigQ.Mul(r.bigQ, new(big.Int).SetUint64(m.Value))
	}
	r.halfQ = new(big.Int).Rsh(r.bigQ, 1)
	r.qiHat = make([]*big.Int, len(r.Moduli))
	r.qiHatInv = make([]uint64, len(r.Moduli))
	for i, m := range r.Moduli {
		r.qiHat[i] = new(big.Int).Div(r.bigQ, new(big.Int).SetUint64(m.Value))
		rem := new(big.Int).Mod(r.qiHat[i], new(big.Int).SetUint64(m.Value)).Uint64()
		inv, ok := m.Inv(rem)
		if !ok {
			panic("ring: CRT basis moduli not pairwise coprime")
		}
		r.qiHatInv[i] = inv
	}
}

func newNTTTable(m nt.Modulus, logN int) (*nttTable, error) {
	n := uint64(1) << uint(logN)
	psi, err := nt.MinimalPrimitiveRootOfUnity(m.Value, 2*n)
	if err != nil {
		return nil, fmt.Errorf("ring: modulus %d: %w", m.Value, err)
	}
	psiInv, ok := m.Inv(psi)
	if !ok {
		return nil, fmt.Errorf("ring: psi not invertible mod %d", m.Value)
	}
	t := &nttTable{mod: m}
	t.psiRev = make([]uint64, n)
	t.psiRevShoup = make([]uint64, n)
	t.psiInvRev = make([]uint64, n)
	t.psiInvRevShoup = make([]uint64, n)
	powPsi := uint64(1)
	powPsiInv := uint64(1)
	for i := uint64(0); i < n; i++ {
		j := bits.Reverse64(i) >> uint(64-logN)
		t.psiRev[j] = powPsi
		t.psiInvRev[j] = powPsiInv
		powPsi = m.Mul(powPsi, psi)
		powPsiInv = m.Mul(powPsiInv, psiInv)
	}
	for i := range t.psiRev {
		t.psiRevShoup[i] = m.ShoupPrecomp(t.psiRev[i])
		t.psiInvRevShoup[i] = m.ShoupPrecomp(t.psiInvRev[i])
	}
	nInv, ok := m.Inv(n % m.Value)
	if !ok {
		return nil, fmt.Errorf("ring: N not invertible mod %d", m.Value)
	}
	t.nInv = nInv
	t.nInvShoup = m.ShoupPrecomp(nInv)
	t.nInvPsi = m.Mul(nInv, t.psiInvRev[1])
	t.nInvPsiShoup = m.ShoupPrecomp(t.nInvPsi)
	t.ifma = ifmaFits(m.Value) && n >= 16
	return t, nil
}

// Level returns the number of RNS residues.
func (r *Ring) Level() int { return len(r.Moduli) }

// ModulusBig returns (a copy of) the full modulus Q as a big integer.
func (r *Ring) ModulusBig() *big.Int { return new(big.Int).Set(r.bigQ) }

// ModulusBits returns ceil(log2 Q), the total coefficient modulus width.
func (r *Ring) ModulusBits() int { return r.bigQ.BitLen() }

// AtLevel returns a ring identical to r but truncated to the first
// level+1 moduli. It shares NTT tables with r.
func (r *Ring) AtLevel(level int) *Ring {
	if level < 0 || level >= len(r.Moduli) {
		panic("ring: level out of range")
	}
	sub := &Ring{
		N:      r.N,
		LogN:   r.LogN,
		Moduli: r.Moduli[:level+1],
		tables: r.tables[:level+1],
		autos:  r.autos,
	}
	sub.ifma = sub.fitsIFMA()
	// Once per level: rlwe.NewContext builds each level's ring at setup.
	sub.precomputeCRT()
	return sub
}

// Poly is an element of R_q stored as one residue row per modulus. Its
// domain flag is unexported: outside this package only NTT, INTT,
// DeclareNTT and DeclareCoeff change it, and IsNTT reads it.
type Poly struct {
	Coeffs [][]uint64
	isNTT  bool

	// ring is the ring whose moduli p's rows are residues of. Arithmetic
	// never reads it — every operation is a method of the ring it runs
	// under — but the packed wire form (packed.go) sizes each row by its
	// modulus, and a marshaller is handed polynomials, not rings.
	ring *Ring
}

// IsNTT reports whether p is in the NTT (evaluation) domain.
func (p *Poly) IsNTT() bool { return p.isNTT }

// DeclareNTT marks p as NTT-domain without transforming it. It is the
// sanctioned escape hatch for constructions whose residue rows already
// hold evaluation-domain values: uniform randomness (identically
// distributed in either domain) and accumulator buffers about to be
// overwritten. All other code changes domains through NTT/INTT; the
// flag is unexported, so the compiler refuses any other write.
func (p *Poly) DeclareNTT() { p.isNTT = true }

// DeclareCoeff marks p as coefficient-domain without transforming it.
// See DeclareNTT for when this is legitimate.
func (p *Poly) DeclareCoeff() { p.isNTT = false }

// NewPoly allocates a zero polynomial for the ring.
func (r *Ring) NewPoly() *Poly {
	backing := make([]uint64, len(r.Moduli)*r.N)
	coeffs := make([][]uint64, len(r.Moduli))
	for i := range coeffs {
		coeffs[i], backing = backing[:r.N], backing[r.N:]
	}
	return &Poly{Coeffs: coeffs, ring: r}
}

// Prefix returns a view of p's first len(r.Moduli) rows as a polynomial
// of r, which must be a truncation of the chain p lives over (AtLevel, or
// the data primes under a key ring). The view shares p's storage.
func (r *Ring) Prefix(p *Poly) *Poly {
	return &Poly{Coeffs: p.Coeffs[:len(r.Moduli)], isNTT: p.isNTT, ring: r}
}

// RowView returns a polynomial over rows, a selection of p's residue
// rows, in p's domain. It shares the rows' storage.
func (p *Poly) RowView(rows [][]uint64) *Poly {
	return &Poly{Coeffs: rows, isNTT: p.isNTT}
}

// GetPoly returns a zeroed coefficient-domain polynomial from the
// ring's scratch pool, falling back to a fresh allocation when the pool
// is empty. It exists because evaluator hot paths (key switching,
// rotation, tensor products) otherwise allocate multi-megabyte
// temporaries per call, and allocation pressure caps the speedup of the
// parallel execution layer. A poly obtained here and never returned is
// simply garbage-collected.
func (r *Ring) GetPoly() *Poly {
	if v := r.pool.Get(); v != nil {
		p := v.(*Poly)
		for i := range p.Coeffs {
			row := p.Coeffs[i]
			for j := range row {
				row[j] = 0
			}
		}
		p.isNTT, p.ring = false, r
		return p
	}
	return r.NewPoly()
}

// PutPoly recycles a scratch polynomial obtained from GetPoly. The
// caller must not retain any reference to p afterwards. Polys whose
// shape does not match the ring (e.g. built against a truncated
// AtLevel ring) are dropped rather than poisoning the pool.
func (r *Ring) PutPoly(p *Poly) {
	if p == nil || len(p.Coeffs) != len(r.Moduli) {
		return
	}
	for i := range p.Coeffs {
		if len(p.Coeffs[i]) != r.N {
			return
		}
	}
	r.pool.Put(p)
}

// CopyPoly returns a deep copy of p.
func (r *Ring) CopyPoly(p *Poly) *Poly {
	q := r.NewPoly()
	for i := range p.Coeffs {
		copy(q.Coeffs[i], p.Coeffs[i])
	}
	q.isNTT = p.isNTT
	return q
}

// Copy copies src into dst.
func (r *Ring) Copy(dst, src *Poly) {
	for i := range src.Coeffs {
		copy(dst.Coeffs[i], src.Coeffs[i])
	}
	dst.isNTT = src.isNTT
}

// Zero clears p in place.
func (r *Ring) Zero(p *Poly) {
	for i := range p.Coeffs {
		row := p.Coeffs[i]
		for j := range row {
			row[j] = 0
		}
	}
	p.isNTT = false
}

// Equal reports whether a and b are identical (same domain, same
// residues).
func (r *Ring) Equal(a, b *Poly) bool {
	if a.isNTT != b.isNTT || len(a.Coeffs) != len(b.Coeffs) {
		return false
	}
	for i := range a.Coeffs {
		for j := range a.Coeffs[i] {
			if a.Coeffs[i][j] != b.Coeffs[i][j] {
				return false
			}
		}
	}
	return true
}

// NTT transforms p in place to the evaluation domain.
func (r *Ring) NTT(p *Poly) {
	if debugEnabled {
		r.debugCheck("NTT", p)
	}
	if p.isNTT {
		panic("ring: NTT on a polynomial already in NTT domain")
	}
	r.parRows(len(p.Coeffs), parMinTransform, func(i int) {
		nttForward(r.tables[i], p.Coeffs[i])
	})
	p.isNTT = true
}

// INTT transforms p in place back to the coefficient domain.
func (r *Ring) INTT(p *Poly) {
	if debugEnabled {
		r.debugCheck("INTT", p)
	}
	if !p.isNTT {
		panic("ring: INTT on a polynomial already in coefficient domain")
	}
	r.parRows(len(p.Coeffs), parMinTransform, func(i int) {
		nttInverse(r.tables[i], p.Coeffs[i])
	})
	p.isNTT = false
}

// NTTForwardRow transforms a single RNS residue row in place (forward,
// coefficient → evaluation). It exposes the per-row kernel to fused
// per-residue pipelines — client encryption fans residue rows across
// workers, running sample → NTT → dyadic mul-add → INTT on each row
// without whole-polynomial domain flips in between. The caller owns the
// enclosing Poly's domain bookkeeping (DeclareNTT / DeclareCoeff).
func (r *Ring) NTTForwardRow(lvl int, row []uint64) {
	if debugEnabled {
		r.debugCheckRow("NTTForwardRow", lvl, row)
	}
	nttForward(r.tables[lvl], row)
}

// NTTInverseRow transforms a single RNS residue row in place (inverse,
// evaluation → coefficient). See NTTForwardRow.
func (r *Ring) NTTInverseRow(lvl int, row []uint64) {
	if debugEnabled {
		r.debugCheckRow("NTTInverseRow", lvl, row)
	}
	nttInverse(r.tables[lvl], row)
}

// nttForward is the in-place Cooley-Tukey negacyclic NTT with merged
// psi powers (Longa-Naehrig). Output is in bit-reversed evaluation
// order, which is self-consistent for dyadic products.
func nttForward(tbl *nttTable, a []uint64) {
	if nttForwardVec(tbl, a) {
		return
	}
	mod := tbl.mod
	n := len(a)
	t := n
	for m := 1; m < n; m <<= 1 {
		t >>= 1
		for i := 0; i < m; i++ {
			j1 := 2 * i * t
			w := tbl.psiRev[m+i]
			ws := tbl.psiRevShoup[m+i]
			// Split the butterfly's two lanes into equal-length slices
			// so the compiler can prove both indexings in range and
			// drop the per-iteration bounds checks.
			x := a[j1 : j1+t : j1+t]
			y := a[j1+t : j1+2*t]
			y = y[:len(x)]
			for k := range x {
				u := x[k]
				v := mod.MulShoup(y[k], w, ws)
				x[k] = mod.Add(u, v)
				y[k] = mod.Sub(u, v)
			}
		}
	}
}

// nttInverse is the in-place Gentleman-Sande inverse transform with
// two exact accelerations:
//
//   - Lazy reduction (Harvey): intermediate lanes live in [0, 2q)
//     instead of [0, q), so each butterfly drops two conditional
//     corrections — the sum lane reduces against 2q and the twiddle
//     lane uses MulShoupLazy on u−v+2q ∈ [0, 4q), which stays exact
//     for q < 2^62.
//   - Folded 1/N scaling (Longa-Naehrig): the final stage has a single
//     twiddle, so scaling its two output lanes by nInv and
//     nInv·psiInvRev[1] (precomputed) replaces the separate scaling
//     sweep. The final stage's full MulShoup also restores canonical
//     [0, q) residues, so the transform's output is bit-identical to
//     the eager implementation.
func nttInverse(tbl *nttTable, a []uint64) {
	if nttInverseVec(tbl, a) {
		return
	}
	mod := tbl.mod
	twoQ := mod.Value << 1
	n := len(a)
	t := 1
	for m := n; m > 2; m >>= 1 {
		j1 := 0
		h := m >> 1
		for i := 0; i < h; i++ {
			w := tbl.psiInvRev[h+i]
			ws := tbl.psiInvRevShoup[h+i]
			// Equal-length lane slices let the compiler drop the
			// per-iteration bounds checks.
			x := a[j1 : j1+t : j1+t]
			y := a[j1+t : j1+2*t]
			y = y[:len(x)]
			for k := range x {
				u := x[k]
				v := y[k]
				s := u + v
				if s >= twoQ {
					s -= twoQ
				}
				x[k] = s
				y[k] = mod.MulShoupLazy(u+twoQ-v, w, ws)
			}
			j1 += 2 * t
		}
		t <<= 1
	}
	half := n >> 1
	x := a[:half:half]
	y := a[half:]
	y = y[:len(x)]
	for k := range x {
		u := x[k]
		v := y[k]
		x[k] = mod.MulShoup(u+v, tbl.nInv, tbl.nInvShoup)
		y[k] = mod.MulShoup(u+twoQ-v, tbl.nInvPsi, tbl.nInvPsiShoup)
	}
}

// Add sets out = a + b.
func (r *Ring) Add(a, b, out *Poly) {
	if debugEnabled {
		r.debugCheck("Add", a, b)
	}
	r.requireSameDomain(a, b)
	r.parRows(len(out.Coeffs), parMinElementary, func(i int) {
		m := r.Moduli[i]
		ra, rb, ro := a.Coeffs[i], b.Coeffs[i], out.Coeffs[i]
		for j := range ro {
			ro[j] = m.Add(ra[j], rb[j])
		}
	})
	out.isNTT = a.isNTT
}

// Sub sets out = a - b.
func (r *Ring) Sub(a, b, out *Poly) {
	if debugEnabled {
		r.debugCheck("Sub", a, b)
	}
	r.requireSameDomain(a, b)
	r.parRows(len(out.Coeffs), parMinElementary, func(i int) {
		m := r.Moduli[i]
		ra, rb, ro := a.Coeffs[i], b.Coeffs[i], out.Coeffs[i]
		for j := range ro {
			ro[j] = m.Sub(ra[j], rb[j])
		}
	})
	out.isNTT = a.isNTT
}

// Neg sets out = -a.
func (r *Ring) Neg(a, out *Poly) {
	if debugEnabled {
		r.debugCheck("Neg", a)
	}
	r.parRows(len(out.Coeffs), parMinElementary, func(i int) {
		m := r.Moduli[i]
		ra, ro := a.Coeffs[i], out.Coeffs[i]
		for j := range ro {
			ro[j] = m.Neg(ra[j])
		}
	})
	out.isNTT = a.isNTT
}

// MulCoeffs sets out = a ⊙ b (dyadic product). Both operands must be in
// the NTT domain, where the dyadic product realizes negacyclic
// convolution.
func (r *Ring) MulCoeffs(a, b, out *Poly) {
	if !a.isNTT || !b.isNTT {
		panic("ring: MulCoeffs requires NTT-domain operands")
	}
	if debugEnabled {
		r.debugCheck("MulCoeffs", a, b)
	}
	r.parRows(len(out.Coeffs), parMinCoeffwise, func(i int) {
		m := r.Moduli[i]
		ra, rb, ro := a.Coeffs[i], b.Coeffs[i], out.Coeffs[i]
		if mulModVector(m, ra, rb, ro) {
			return
		}
		for j := range ro {
			ro[j] = m.Mul(ra[j], rb[j])
		}
	})
	out.isNTT = true
}

// ShoupPolyPrecomp returns per-coefficient MulShoup companions for a
// fixed operand polynomial (one row per residue). Intended for
// operands that are multiplied many times against varying inputs —
// key-switching key polynomials above all — where the precomputation
// turns every inner-product multiply from a full Barrett reduction
// into a Shoup one.
func (r *Ring) ShoupPolyPrecomp(p *Poly) [][]uint64 {
	out := make([][]uint64, len(p.Coeffs))
	r.parRows(len(p.Coeffs), parMinCoeffwise, func(i int) {
		m := r.Moduli[i]
		row := make([]uint64, len(p.Coeffs[i]))
		for j, w := range p.Coeffs[i] {
			row[j] = m.ShoupPrecomp(w)
		}
		out[i] = row
	})
	return out
}

// MulCoeffsShoup sets out = a ⊙ b for a fixed operand b whose Shoup
// companions bShoup come from ShoupPolyPrecomp: one Shoup reduction a
// coefficient where MulCoeffs runs a Barrett one, the same canonical
// residues. Both operands must be in the NTT domain. Each row runs
// MulCoeffsShoupRow.
func (r *Ring) MulCoeffsShoup(a, b *Poly, bShoup [][]uint64, out *Poly) {
	if !a.isNTT || !b.isNTT {
		panic("ring: MulCoeffsShoup requires NTT-domain operands")
	}
	if debugEnabled {
		r.debugCheck("MulCoeffsShoup", a, b)
	}
	r.parRows(len(out.Coeffs), parMinCoeffwise, func(i int) {
		r.MulCoeffsShoupRow(i, a.Coeffs[i], b.Coeffs[i], bShoup[i], out.Coeffs[i])
	})
	out.isNTT = true
}

// MulCoeffsShoupRow sets out[j] = a[j]·b[j] mod q_i for j < len(out),
// for residue row i of a fixed operand b with Shoup companions bShoup
// and a below q_i: MulCoeffsShoup's row, for callers that fuse it into
// a per-residue pipeline (the client's encrypt-zero and decryption
// rows). out may be a. On rings whose moduli are all below 2^51 it runs
// the AVX-512 IFMA kernel where the host has one, with the same
// canonical result.
func (r *Ring) MulCoeffsShoupRow(i int, a, b, bShoup, out []uint64) {
	m := r.Moduli[i]
	k := 0 // the kernel takes whole registers of 8; the loop the rest
	if r.useIFMA() {
		if k = len(out) &^ 7; k > 0 {
			mulShoupVector(m.Value, a, b, bShoup, out[:k])
		}
	}
	a, b, bShoup = a[:len(out)], b[:len(out)], bShoup[:len(out)]
	for j := k; j < len(out); j++ {
		out[j] = m.MulShoup(a[j], b[j], bShoup[j])
	}
}

// MulCoeffsShoupAdd2 sets out0 += a ⊙ b0 and out1 += a ⊙ b1: the
// key-switch inner product at the identity Galois element, run by
// AutomorphismNTTMulShoupAdd2 with g = 1. b0Shoup and b1Shoup come from
// ShoupPolyPrecomp. No library code calls it; it stays only for the
// benchmark's ring.*.shoup_add2_row_us replay row until that row is
// retired.
func (r *Ring) MulCoeffsShoupAdd2(a, b0 *Poly, b0Shoup [][]uint64, out0 *Poly, b1 *Poly, b1Shoup [][]uint64, out1 *Poly) {
	r.AutomorphismNTTMulShoupAdd2(a, 1, b0, b0Shoup, out0, b1, b1Shoup, out1)
}

// AutomorphismNTTMulShoupAdd2 fuses the NTT-domain automorphism of a
// into the dual accumulation: out0 += φ_g(a) ⊙ b0, out1 += φ_g(a) ⊙ b1,
// reading a through the cached slot permutation instead of
// materializing φ_g(a) first. This is the triple-hoisted key-switch
// inner product — the per-element automorphism costs zero extra memory
// passes and no scratch polynomial; at g = 1 the permutation is the
// identity and it is the plain inner product relinearization runs.
// Bit-identical to AutomorphismNTT followed by a Shoup multiply and a
// modular add per coefficient: both compute out[j] += a[perm[j]]·b[j]
// in the same exact modular arithmetic. g must be odd; a must not
// alias out0 or out1. On rings whose moduli are
// all below 2^51 it runs the AVX-512 IFMA kernel where the host has one
// (ifma_amd64.s), with the same canonical result.
func (r *Ring) AutomorphismNTTMulShoupAdd2(a *Poly, g uint64, b0 *Poly, b0Shoup [][]uint64, out0 *Poly, b1 *Poly, b1Shoup [][]uint64, out1 *Poly) {
	if !a.isNTT || !b0.isNTT || !b1.isNTT || !out0.isNTT || !out1.isNTT {
		panic("ring: AutomorphismNTTMulShoupAdd2 requires NTT-domain operands")
	}
	if debugEnabled {
		r.debugCheck("AutomorphismNTTMulShoupAdd2", a, b0, b1, out0, out1)
	}
	tbl := r.automorphismTable(g)
	perm := tbl.ntt
	if r.useIFMA() {
		r.parRows(len(out0.Coeffs), parMinCoeffwise, func(i int) {
			autoMulShoupAdd2Vector(r.Moduli[i].Value, a.Coeffs[i], perm,
				b0.Coeffs[i], b0Shoup[i], out0.Coeffs[i], b1.Coeffs[i], b1Shoup[i], out1.Coeffs[i])
		})
		return
	}
	r.parRows(len(out0.Coeffs), parMinCoeffwise, func(i int) {
		m := r.Moduli[i]
		ro0 := out0.Coeffs[i]
		ro1 := out1.Coeffs[i][:len(ro0)]
		ra := a.Coeffs[i]
		rb0 := b0.Coeffs[i][:len(ro0)]
		rs0 := b0Shoup[i][:len(ro0)]
		rb1 := b1.Coeffs[i][:len(ro0)]
		rs1 := b1Shoup[i][:len(ro0)]
		for j := range ro0 {
			x := ra[perm[j]]
			ro0[j] = m.Add(ro0[j], m.MulShoup(x, rb0[j], rs0[j]))
			ro1[j] = m.Add(ro1[j], m.MulShoup(x, rb1[j], rs1[j]))
		}
	})
}

// MulScalar sets out = a * c for a scalar c (already reduced per
// modulus by the caller or arbitrary; it is reduced here).
func (r *Ring) MulScalar(a *Poly, c uint64, out *Poly) {
	if debugEnabled {
		r.debugCheck("MulScalar", a)
	}
	r.parRows(len(out.Coeffs), parMinCoeffwise, func(i int) {
		m := r.Moduli[i]
		cc := m.Reduce(c)
		cs := m.ShoupPrecomp(cc)
		ra, ro := a.Coeffs[i], out.Coeffs[i]
		for j := range ro {
			ro[j] = m.MulShoup(ra[j], cc, cs)
		}
	})
	out.isNTT = a.isNTT
}

func (r *Ring) requireSameDomain(a, b *Poly) {
	if a.isNTT != b.isNTT {
		panic("ring: mixed-domain operands")
	}
}

// GaloisElementForRotation returns the Galois element g = 3^steps mod 2N
// (or its inverse for negative steps) whose automorphism realizes a
// rotation of the batched plaintext rows by steps slots.
func (r *Ring) GaloisElementForRotation(steps int) uint64 {
	twoN := uint64(2 * r.N)
	g := uint64(1)
	gen := uint64(3)
	s := steps
	if s < 0 {
		// 3^-1 mod 2N exists since 3 is odd; use exponent (N/2 - |s|)
		// as the group of row rotations has order N/2.
		s = s % (r.N / 2)
		s += r.N / 2
	}
	s = s % (r.N / 2)
	mod2N := func(x uint64) uint64 { return x & (twoN - 1) }
	for i := 0; i < s; i++ {
		g = mod2N(g * gen)
	}
	return g
}

// GaloisElementRowSwap returns the Galois element 2N-1 whose
// automorphism swaps the two rows of the batched plaintext matrix
// (BFV) or conjugates the slots (CKKS).
func (r *Ring) GaloisElementRowSwap() uint64 { return uint64(2*r.N - 1) }

// Automorphism applies X -> X^g to a coefficient-domain polynomial:
// out[i*g mod 2N] = ±a[i] with sign flip when the exponent wraps past N.
// g must be odd. a and out must not alias. The index/sign permutation is
// cached per Galois element.
func (r *Ring) Automorphism(a *Poly, g uint64, out *Poly) {
	if a.isNTT {
		panic("ring: Automorphism requires coefficient domain")
	}
	if debugEnabled {
		r.debugCheck("Automorphism", a)
	}
	tbl := r.automorphismTable(g)
	perm := tbl.coeff
	r.parRows(len(out.Coeffs), parMinTransform, func(lvl int) {
		m := r.Moduli[lvl]
		ra, ro := a.Coeffs[lvl], out.Coeffs[lvl]
		for i, e := range perm {
			if e&autoSignBit != 0 {
				ro[e&^autoSignBit] = m.Neg(ra[i])
			} else {
				ro[e] = ra[i]
			}
		}
	})
	out.isNTT = false
}

// AutomorphismNTT applies X -> X^g to an NTT-domain polynomial by
// permuting evaluation slots directly: no transform, no sign fixups,
// one gather per residue row. This is what makes hoisted rotation pay
// off — the decomposed digits stay in the evaluation domain across the
// whole rotation batch. g must be odd. a and out must not alias.
func (r *Ring) AutomorphismNTT(a *Poly, g uint64, out *Poly) {
	if !a.isNTT {
		panic("ring: AutomorphismNTT requires NTT domain")
	}
	if debugEnabled {
		r.debugCheck("AutomorphismNTT", a)
	}
	tbl := r.automorphismTable(g)
	perm := tbl.ntt
	r.parRows(len(out.Coeffs), parMinTransform, func(lvl int) {
		ra, ro := a.Coeffs[lvl], out.Coeffs[lvl]
		for i, src := range perm {
			ro[i] = ra[src]
		}
	})
	out.isNTT = true
}

// PolyToBigintCentered writes the centered CRT composition of each
// coefficient of p (coefficient domain) into out, which must have
// length N. Values lie in (-Q/2, Q/2].
func (r *Ring) PolyToBigintCentered(p *Poly, out []*big.Int) {
	if p.isNTT {
		panic("ring: composition requires coefficient domain")
	}
	if debugEnabled {
		r.debugCheck("PolyToBigintCentered", p)
	}
	tmp := new(big.Int)
	// Off the request path: BFV's tensor lift, the decrypt oracle and noise norms.
	for j := 0; j < r.N; j++ {
		acc := out[j]
		if acc == nil {
			acc = new(big.Int)
			out[j] = acc
		}
		acc.SetUint64(0)
		for i := range p.Coeffs {
			m := r.Moduli[i]
			// term = ((c_ij * qiHatInv_i) mod q_i) * qiHat_i
			v := m.Mul(p.Coeffs[i][j], r.qiHatInv[i])
			tmp.SetUint64(v)
			tmp.Mul(tmp, r.qiHat[i])
			acc.Add(acc, tmp)
		}
		acc.Mod(acc, r.bigQ)
		if acc.Cmp(r.halfQ) > 0 {
			acc.Sub(acc, r.bigQ)
		}
	}
}

// CoeffBigintCentered composes the single coefficient j of p
// (coefficient domain) into its centered representative in
// (-Q/2, Q/2], writing it to acc. It is the per-coefficient form of
// PolyToBigintCentered, used by the RNS decryptor's exact-rounding
// fallback: only coefficients whose fixed-point fraction lands inside
// the ambiguity band pay for a big.Int composition.
func (r *Ring) CoeffBigintCentered(p *Poly, j int, acc *big.Int) {
	if p.isNTT {
		panic("ring: composition requires coefficient domain")
	}
	tmp := new(big.Int)
	acc.SetUint64(0)
	for i := range p.Coeffs {
		m := r.Moduli[i]
		v := m.Mul(p.Coeffs[i][j], r.qiHatInv[i])
		tmp.SetUint64(v)
		tmp.Mul(tmp, r.qiHat[i])
		acc.Add(acc, tmp)
	}
	acc.Mod(acc, r.bigQ)
	if acc.Cmp(r.halfQ) > 0 {
		acc.Sub(acc, r.bigQ)
	}
}

// SetCoeffsBigint decomposes arbitrary big integers (possibly negative)
// into the RNS residues of p (coefficient domain).
func (r *Ring) SetCoeffsBigint(values []*big.Int, p *Poly) {
	tmp := new(big.Int)
	// Off the request path: BFV's tensor product and tests.
	for i := range p.Coeffs {
		m := r.Moduli[i]
		bq := new(big.Int).SetUint64(m.Value)
		row := p.Coeffs[i]
		for j := range row {
			if j < len(values) && values[j] != nil {
				tmp.Mod(values[j], bq)
				row[j] = tmp.Uint64()
			} else {
				row[j] = 0
			}
		}
	}
	p.isNTT = false
}

// SetCoeffsUint64 sets the polynomial from small unsigned coefficients,
// reduced per modulus.
func (r *Ring) SetCoeffsUint64(values []uint64, p *Poly) {
	for i := range p.Coeffs {
		m := r.Moduli[i]
		row := p.Coeffs[i]
		for j := range row {
			if j < len(values) {
				row[j] = m.Reduce(values[j])
			} else {
				row[j] = 0
			}
		}
	}
	p.isNTT = false
}

// SetCoeffsInt64 sets the polynomial from small signed coefficients.
func (r *Ring) SetCoeffsInt64(values []int64, p *Poly) {
	for i := range p.Coeffs {
		m := r.Moduli[i]
		row := p.Coeffs[i]
		for j := range row {
			if j < len(values) {
				v := values[j]
				if v >= 0 {
					row[j] = m.Reduce(uint64(v))
				} else {
					row[j] = m.Neg(m.Reduce(uint64(-v)))
				}
			} else {
				row[j] = 0
			}
		}
	}
	p.isNTT = false
}

// InfNormBig returns the centered infinity norm of p as a big integer.
func (r *Ring) InfNormBig(p *Poly) *big.Int {
	vals := make([]*big.Int, r.N)
	// Noise measurement, never a request path.
	r.PolyToBigintCentered(p, vals)
	max := new(big.Int)
	abs := new(big.Int)
	for _, v := range vals {
		abs.Abs(v)
		if abs.Cmp(max) > 0 {
			max.Set(abs)
		}
	}
	return max
}
