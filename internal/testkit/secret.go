package testkit

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"choco/internal/ring"
	"choco/internal/rlwe"
)

// window is how many consecutive coefficients make a finding: enough that
// a match is the key and not a coincidence.
const window = 16

// minNonzero is how many nonzero values (bytes, in a binary form) a window
// must hold to be searched for: a window of a ternary key that is nearly
// all zero says little about the key and would match zero padding.
const minNonzero = 4

// Secret is what a client's seed makes secret, in every form the search
// looks for:
//   - the 32 seed bytes, raw or printed with %v or %x;
//   - each 16-coefficient window of the secret key GenSecretKey draws from
//     the seed, and of the public key's error, as signed values and as
//     residues mod each prime of the key ring, in the coefficient and the
//     NTT domain; each written as little-endian 64-bit words, as the low
//     byte of each coefficient, or printed with %v or %d; and the residue
//     rows packed at their bit width (ring.Poly.AppendPacked);
//   - the draws of the client's encryptions in the same forms, over the
//     data ring: the error of each seeded encryption (Check adds them) and
//     u, e1 and e2 of each public-key encryption (PublicKeyEncryptions).
//     A draw is searched for by its aligned 16-coefficient blocks, so a
//     run of 31 of its coefficients is always found; that registers a
//     sixteenth of the windows a key does, for up to three polynomials
//     per encryption.
//
// GenSecretKey is a pure function of the seed and the scheme's context,
// and so is each encryptor's stream of draws, so a test builds the Secret
// from the seed it gave the client and reads nothing of the client.
type Secret struct {
	ctx  *rlwe.Context
	seed [32]byte
	// seeded replays the client's symmetric encryptor; it has made
	// seededDraws encryptions.
	seeded      *rlwe.SymmetricEncryptor
	seededDraws int

	forms []string
	// bin holds every binary window by length, then by rolling hash;
	// seen[length] has the bit hash>>(64-seenBits) set for each, so a scan
	// consults the map only on a likely match.
	bin  map[int]map[uint64][]binWindow
	seen map[int][]uint64
	nums map[[window]int64]numWindow
}

type binWindow struct {
	data string
	form int
	at   int
}

type numWindow struct{ form, at int }

// NewSecret rebuilds the secrets of a client keyed by seed on ctx.
func NewSecret(ctx *rlwe.Context, seed [32]byte) *Secret {
	s := &Secret{ctx: ctx, seed: seed, bin: map[int]map[uint64][]binWindow{}, seen: map[int][]uint64{}, nums: map[[window]int64]numWindow{}}
	for name, form := range map[string]string{"seed, raw": string(seed[:]), "seed, printed with %v": fmt.Sprint(seed), "seed, printed with %x": fmt.Sprintf("%x", seed)} {
		s.addBytes(name, form, len(form), 1)
	}

	kg := rlwe.NewKeyGenerator(ctx, seed)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rQ := ctx.RingQ
	key := rQ.NewPoly()
	rQ.Copy(key, sk.ValueQ)
	rQ.INTT(key)
	s.addPoly("secret key", ctx.RingQP, centered(rQ, key.Coeffs[0]), 1)
	// P0 = -(P1·s + e), so e = -(P0 + P1·s).
	e := rQ.NewPoly()
	rQ.MulCoeffs(pk.P1, sk.ValueQ, e)
	rQ.Add(e, pk.P0, e)
	rQ.Neg(e, e)
	rQ.INTT(e)
	s.addPoly("public-key error", ctx.RingQP, centered(rQ, e.Coeffs[0]), 1)
	// An encryptor under a zero key writes its draws bare: c0 = -e.
	s.seeded = rlwe.NewSymmetricEncryptor(ctx, &rlwe.SecretKey{ValueQ: rQ.NewPoly()}, seed)
	return s
}

// spareDraws is how many seeded encryptions past the last one an upload
// holds the Secret still rebuilds: an encryption the client made but did
// not send, or one whose public seed a leak overwrote.
const spareDraws = 2

// addSeededDraws rebuilds the error of each seeded encryption the client
// uploaded. The symmetric encryptor's stream gives each encryption's
// public seed, then its error, whatever the level, so the replay draws in
// that order and goes on while the uploads hold the seeds it draws.
func (s *Secret) addSeededDraws(up [][]byte) {
	c0 := make([]uint64, s.ctx.RingQ.N)
	for missed := 0; missed < spareDraws; s.seededDraws++ {
		ctSeed := s.seeded.Sample(0)
		missed++
		for _, f := range up {
			if bytes.Contains(f, ctSeed[:]) {
				missed = 0
				break
			}
		}
		s.seeded.ZeroRow(0, c0)
		e := centered(s.ctx.RingQ, c0)
		for j := range e {
			e[j] = -e[j]
		}
		s.addPoly(fmt.Sprintf("error of seeded encryption %d", s.seededDraws), s.ctx.RingQ, e, window)
	}
}

// PublicKeyEncryptions adds the draws of the client's first n encryptions
// under its public key (rlwe.Encryptor): u, e1 and e2 of each. It returns s.
func (s *Secret) PublicKeyEncryptions(n int) *Secret {
	// Under pk = (0, 0) an encryption of zero is (e1, e2); under
	// pk = (1, 1), NTT domain, it is (u + e1, u + e2).
	r := s.ctx.RingQ
	one := r.NewPoly()
	for i := range one.Coeffs {
		one.Coeffs[i][0] = 1
	}
	r.NTT(one)
	bare := rlwe.NewEncryptor(s.ctx, &rlwe.PublicKey{P0: r.NewPoly(), P1: r.NewPoly()}, s.seed)
	plusU := rlwe.NewEncryptor(s.ctx, &rlwe.PublicKey{P0: one, P1: one}, s.seed)
	e1, e2 := make([]uint64, r.N), make([]uint64, r.N)
	u1, u2 := make([]uint64, r.N), make([]uint64, r.N)
	m := r.Moduli[0]
	for k := 0; k < n; k++ {
		bare.Sample()
		plusU.Sample()
		bare.ZeroRow(0, e1, e2)
		plusU.ZeroRow(0, u1, u2)
		for j := range u1 {
			u1[j] = m.Sub(u1[j], e1[j])
		}
		s.addPoly(fmt.Sprintf("u of public-key encryption %d", k), r, centered(r, u1), window)
		s.addPoly(fmt.Sprintf("e1 of public-key encryption %d", k), r, centered(r, e1), window)
		s.addPoly(fmt.Sprintf("e2 of public-key encryption %d", k), r, centered(r, e2), window)
	}
	return s
}

// centered reads a row of residues mod r's first prime that are small
// coefficients as signed values.
func centered(r *ring.Ring, row []uint64) []int64 {
	q := r.Moduli[0].Value
	out := make([]int64, len(row))
	for j, v := range row {
		out[j] = int64(v)
		if v > q/2 {
			out[j] -= int64(q)
		}
	}
	return out
}

// addPoly registers every form of the signed polynomial v over the rows of
// r: the key ring for a key or its error, every prime they are reduced by,
// and the data ring for an encryption's draws. The windows start every
// stride coefficients.
func (s *Secret) addPoly(name string, r *ring.Ring, v []int64, stride int) {
	s.addSeq(name+", signed", v, stride)
	coeff := r.NewPoly()
	r.SetCoeffsInt64(v, coeff)
	ntt := r.NewPoly()
	r.Copy(ntt, coeff)
	r.NTT(ntt)
	for domain, p := range map[string]*ring.Poly{"coefficient": coeff, "NTT": ntt} {
		packed := p.AppendPacked(nil)
		for i, row := range p.Coeffs {
			m := r.Moduli[i]
			vals := make([]int64, len(row))
			for j, x := range row {
				vals[j] = int64(x)
			}
			s.addSeq(fmt.Sprintf("%s, residues mod %d (%s domain)", name, m.Value, domain), vals, stride)
			n := ring.PackedBytes(r.N, m.BitLen())
			s.addBytes(fmt.Sprintf("%s, residues mod %d (%s domain) packed at %d bits", name, m.Value, domain, m.BitLen()),
				string(packed[:n]), ring.PackedBytes(window, m.BitLen()), max(8, ring.PackedBytes(stride, m.BitLen())))
			packed = packed[n:]
		}
	}
}

// addSeq registers a coefficient sequence printed, as little-endian
// words and as low bytes, by windows starting every stride coefficients.
func (s *Secret) addSeq(name string, v []int64, stride int) {
	form := len(s.forms)
	s.forms = append(s.forms, name+", printed")
	for j := 0; j+window <= len(v); j += stride {
		var w [window]int64
		copy(w[:], v[j:])
		if nonzero(w[:]) >= minNonzero {
			s.nums[w] = numWindow{form, j}
		}
	}
	words := make([]byte, 8*len(v))
	low := make([]byte, len(v))
	for j, x := range v {
		binary.LittleEndian.PutUint64(words[8*j:], uint64(x))
		low[j] = byte(x)
	}
	s.addBytes(name+", little-endian words", string(words), 8*window, 8*stride)
	s.addBytes(name+", low bytes", string(low), window, stride)
}

// addBytes registers every length-byte window of data that starts at a
// multiple of step.
func (s *Secret) addBytes(name, data string, length, step int) {
	form := len(s.forms)
	s.forms = append(s.forms, name)
	idx := s.bin[length]
	if idx == nil {
		idx = map[uint64][]binWindow{}
		s.bin[length] = idx
		s.seen[length] = make([]uint64, 1<<seenBits/64)
	}
	seen := s.seen[length]
	for at := 0; at+length <= len(data); at += step {
		w := data[at : at+length]
		if length < len(data) && nonzero([]byte(w)) < minNonzero {
			continue // a window, not the whole needle (the seed is kept as it is)
		}
		var h uint64
		for k := 0; k < length; k++ {
			h = h*hashBase + uint64(w[k])
		}
		idx[h] = append(idx[h], binWindow{w, form, at})
		seen[h>>(64-seenBits)/64] |= 1 << (h >> (64 - seenBits) % 64)
	}
}

func nonzero[T int64 | byte](w []T) int {
	n := 0
	for _, x := range w {
		if x != 0 {
			n++
		}
	}
	return n
}

const (
	hashBase = 1099511628211
	seenBits = 22
)

// find returns where in b the secret appears, or "".
func (s *Secret) find(b []byte) string {
	for length, idx := range s.bin {
		seen := s.seen[length]
		if len(b) < length {
			continue
		}
		pow := uint64(1)
		for k := 0; k < length; k++ {
			pow *= hashBase
		}
		var h uint64
		for i, c := range b {
			h = h*hashBase + uint64(c)
			if i >= length {
				h -= uint64(b[i-length]) * pow
			}
			if i < length-1 || seen[h>>(64-seenBits)/64]&(1<<(h>>(64-seenBits)%64)) == 0 {
				continue
			}
			for _, w := range idx[h] {
				if string(b[i+1-length:i+1]) == w.data {
					return fmt.Sprintf("%s (bytes %d… of it) at byte %d", s.forms[w.form], w.at, i+1-length)
				}
			}
		}
	}
	return s.findNumbers(b)
}

// findNumbers looks for a window of the secret among the runs of integers
// in b separated by spaces or commas, as %v and %d print a slice (and as
// %#v does).
func (s *Secret) findNumbers(b []byte) string {
	var run []int64
	for i := 0; i < len(b); {
		start, j := i, i
		if b[j] == '-' {
			j++
		}
		k := j
		var v uint64
		for ; k < len(b) && '0' <= b[k] && b[k] <= '9' && k-j < 19; k++ {
			v = 10*v + uint64(b[k]-'0')
		}
		switch {
		case k == j:
			run = run[:0]
			i++
			continue
		case v > math.MaxInt64 || (k < len(b) && '0' <= b[k] && b[k] <= '9'):
			run = run[:0] // a value past int64 breaks the run
			for k < len(b) && '0' <= b[k] && b[k] <= '9' {
				k++
			}
		default:
			x := int64(v)
			if j > start {
				x = -x
			}
			run = append(run, x)
			if len(run) >= window {
				var w [window]int64
				copy(w[:], run[len(run)-window:])
				if n, ok := s.nums[w]; ok {
					return fmt.Sprintf("%s (coefficients %d…%d) at byte %d", s.forms[n.form], n.at, n.at+window-1, start)
				}
			}
		}
		for i = k; i < len(b) && (b[i] == ' ' || b[i] == ','); i++ {
		}
		if i == k {
			run = run[:0]
		}
	}
	return ""
}

// Check fails tb if any frame or line of text r recorded holds one of the
// secrets, or if decode, the strict decoder the server would run, refuses
// a client-to-server frame. Each secret first gains the errors of the
// seeded encryptions its client uploaded; the replay runs the encryptor,
// which may write to the standard logger and so to r, so r is not locked
// for it.
func (r *Recorder) Check(tb testing.TB, decode func(frame []byte) error, secrets ...*Secret) {
	tb.Helper()
	up := r.Up()
	for _, s := range secrets {
		s.addSeededDraws(up)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, f := range r.up {
		if err := decode(f); err != nil {
			tb.Errorf("client-to-server frame %d (%d B) does not decode: %v", i, len(f), err)
		}
	}
	sinks := []struct {
		name string
		data [][]byte
	}{{"client-to-server frame", r.up}, {"server-to-client frame", r.down}, {"text", r.text}}
	for _, sink := range sinks {
		for i, b := range sink.data {
			for _, s := range secrets {
				if where := s.find(b); where != "" {
					tb.Errorf("%s %d (%d B) holds the %s", sink.name, i, len(b), where)
				}
			}
		}
	}
}
