package testkit

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
	"time"

	"choco/internal/bfv"
	"choco/internal/protocol"
	"choco/internal/ring"
	"choco/internal/sampling"
)

// seed is a high-entropy client seed: a seed of mostly zero bytes would
// match zero runs in any frame.
var seed = [32]byte{0x9e, 0x37, 0x79, 0xb9, 0x7f, 0x4a, 0x7c, 0x15, 0xf3, 0x9c, 0xc0, 0x60, 0x5c, 0xed, 0xc8, 0x34,
	0x10, 0x82, 0x27, 0x6b, 0xf3, 0xa2, 0x72, 0x37, 0xd1, 0xb5, 0x4b, 0x2f, 0x0b, 0x1e, 0x62, 0x1d}

func flatten(p *ring.Poly) []byte {
	var out []byte
	for _, row := range p.Coeffs {
		for _, c := range row {
			out = append(out, byte(c))
		}
	}
	return out
}

func words(row []uint64) []byte {
	var out []byte
	for _, c := range row {
		out = binary.LittleEndian.AppendUint64(out, c)
	}
	return out
}

// TestSecretFindsEveryForm plants the client's secret in each form the
// search covers, in the middle of otherwise clean bytes, and requires a
// finding for each; the client's legitimate frames must draw none.
func TestSecretFindsEveryForm(t *testing.T) {
	ctx, err := bfv.NewContext(bfv.PresetTest())
	if err != nil {
		t.Fatal(err)
	}
	kg := bfv.NewKeyGenerator(ctx, seed)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	coeff := ctx.RingQ.NewPoly()
	ctx.RingQ.Copy(coeff, sk.ValueQ)
	ctx.RingQ.INTT(coeff)
	signed := make([]int64, 40)
	for j := range signed {
		signed[j] = int64(coeff.Coeffs[0][j])
		if coeff.Coeffs[0][j] > ctx.RingQ.Moduli[0].Value/2 {
			signed[j] -= int64(ctx.RingQ.Moduli[0].Value)
		}
	}
	e := ctx.RingQ.NewPoly()
	ctx.RingQ.MulCoeffs(pk.P1, sk.ValueQ, e)
	ctx.RingQ.Add(e, pk.P0, e)
	ctx.RingQ.Neg(e, e)
	ctx.RingQ.INTT(e)

	enc := bfv.NewSymmetricEncryptor(ctx, sk, seed)
	sct, err := enc.EncryptUintsSeeded([]uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	upload := protocol.MarshalSeededBFV(sct)
	bundle := protocol.MarshalKeyBundle(&protocol.KeyBundle{PK: pk, Galois: kg.GenRotationKeys(sk, 1, 2)})

	// The encryptors' draws, straight from their labelled streams: the
	// seeded encryption's public seed and error, and the first public-key
	// encryption's u, e1 and e2.
	r, n := ctx.RingQ, ctx.RingQ.N
	symSrc := sampling.NewSource(seed, "bfv-symmetric-encryptor")
	for i := 0; i < 4; i++ {
		symSrc.Uint64() // the public seed's four words
	}
	symE := make([]int64, n)
	symSrc.GaussianSigned(symE, ctx.Sigma)
	pkSrc := sampling.NewSource(seed, "bfv-encryptor")
	u, e1, e2 := make([]int64, n), make([]int64, n), make([]int64, n)
	pkSrc.TernarySigned(u)
	pkSrc.GaussianSigned(e1, ctx.Sigma)
	pkSrc.GaussianSigned(e2, ctx.Sigma)
	e1Coeff, e2NTT := r.NewPoly(), r.NewPoly()
	r.SetCoeffsInt64(e1, e1Coeff)
	r.SetCoeffsInt64(e2, e2NTT)
	r.NTT(e2NTT)
	low := func(v []int64) []byte {
		out := make([]byte, len(v))
		for j, x := range v {
			out[j] = byte(x)
		}
		return out
	}

	secret := NewSecret(ctx.Context, seed).PublicKeyEncryptions(1)
	secret.addSeededDraws([][]byte{upload})
	for _, clean := range [][]byte{upload, bundle, []byte(fmt.Sprint(ctx.Params))} {
		if where := secret.find(clean); where != "" {
			t.Errorf("a clean %d-byte frame holds the %s", len(clean), where)
		}
	}
	planted := map[string][]byte{
		"raw seed":                   seed[:],
		"seed %v":                    fmt.Appendf(nil, "keygen %+v", *kg.KeyGenerator),
		"seed %x":                    fmt.Appendf(nil, "seed %x", seed),
		"key %v":                     fmt.Appendf(nil, "key %v", sk),
		"signed %d":                  fmt.Appendf(nil, "%d", signed[3:30]),
		"signed low bytes":           flatten(&ring.Poly{Coeffs: [][]uint64{coeff.Coeffs[0][100:140]}}),
		"NTT packed":                 sk.ValueQ.AppendPacked(nil),
		"NTT low bytes":              flatten(sk.ValueQ)[ctx.RingQ.N+7:],
		"coefficient words":          words(coeff.Coeffs[1][50:90]),
		"NTT words mod special":      words(sk.ValueQP.Coeffs[2][9:40]),
		"public-key error %v":        fmt.Appendf(nil, "error: %v", e.Coeffs[0][200:230]),
		"public-key error low bytes": flatten(e)[500:600],
		"seeded error %d":            fmt.Appendf(nil, "e=%d", symE[101:132]),
		"seeded error low bytes":     low(symE[n-40:]),
		"u %v":                       fmt.Appendf(nil, "u: %v", u[7:38]),
		"e1 residue words":           words(e1Coeff.Coeffs[1][300:340]),
		"e2 NTT packed":              e2NTT.AppendPacked(nil),
	}
	for name, leak := range planted {
		frame := append(append(append([]byte(nil), upload[:1000]...), leak...), upload[1000:]...)
		if where := secret.find(frame); where == "" {
			t.Errorf("%s: not found", name)
		} else {
			t.Logf("%s: %s", name, where)
		}
	}
}

// TestCheckStrictDecode: a frame its decoder refuses is a finding.
func TestCheckStrictDecode(t *testing.T) {
	var rec Recorder
	rec.frame(true, []byte("hello"))
	ft := &fakeTB{TB: t}
	rec.Check(ft, func(f []byte) error { return fmt.Errorf("%s refused", f) })
	if !strings.Contains(ft.failure, "frame 0 (5 B) does not decode: hello refused") {
		t.Errorf("got %q", ft.failure)
	}
}

type fakeTB struct {
	testing.TB
	failure  string
	cleanups []func()
}

func (f *fakeTB) Helper()                           {}
func (f *fakeTB) Errorf(format string, args ...any) { f.failure += fmt.Sprintf(format, args...) }
func (f *fakeTB) Cleanup(fn func())                 { f.cleanups = append(f.cleanups, fn) }

func (f *fakeTB) finish() {
	for i := len(f.cleanups) - 1; i >= 0; i-- {
		f.cleanups[i]()
	}
}

// TestCheckGoroutines: a goroutine parked past the bound is reported with
// its stack, and one that exits within it is not.
func TestCheckGoroutines(t *testing.T) {
	ft := &fakeTB{TB: t}
	CheckGoroutines(ft)
	go time.Sleep(LeakBound / 4)
	ft.finish()
	if ft.failure != "" {
		t.Errorf("a goroutine that exits within the bound was reported: %s", ft.failure)
	}

	ft = &fakeTB{TB: t}
	CheckGoroutines(ft)
	stop := make(chan struct{})
	go parkedForever(stop)
	ft.finish()
	close(stop)
	if !strings.Contains(ft.failure, "1 goroutine(s)") || !strings.Contains(ft.failure, "parkedForever") {
		t.Errorf("the parked goroutine was not reported with its stack: %q", ft.failure)
	}
}

func parkedForever(stop chan struct{}) { <-stop }
