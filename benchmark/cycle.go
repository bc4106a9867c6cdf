package main

import (
	"errors"
	"fmt"
	"math"
	"time"

	"choco/internal/bfv"
	"choco/internal/ckks"
	"choco/internal/protocol"
)

// client-cycle is the CHOCO-TACO kernel in software: no server, one
// core. One request visits bfv-B, bfv-A and ckks-C in turn through the
// same calls the apps' clients make — encode + encrypt + marshal, a
// stand-in for the reply, unmarshal + decrypt + decode — and checks the
// round trip.

const (
	cyclePool = 8
	// cycleTolerance bounds the CKKS round-trip error.
	cycleTolerance = 1e-4
)

// cycleEnv holds the plaintext vectors each preset round-trips.
type cycleEnv struct {
	seed   int64
	ints   [][]int64   // full-slot vectors within ±2^7 (fits t at both BFV sets)
	floats [][]float64 // full-slot vectors within ±1
}

func newCycleEnv(cfg runConfig) (any, error) {
	rng := seededRand(cfg.seed, "cycle/inputs")
	env := &cycleEnv{seed: cfg.seed}
	for p := 0; p < cyclePool; p++ {
		ints := make([]int64, bfv.PresetA().N())
		for i := range ints {
			ints[i] = int64(rng.Intn(256)) - 128
		}
		floats := make([]float64, ckks.PresetC().Slots())
		for i := range floats {
			floats[i] = 2*rng.Float64() - 1
		}
		env.ints = append(env.ints, ints)
		env.floats = append(env.floats, floats)
	}
	return env, nil
}

// loopback is a protocol.Transport with no peer: Send keeps the frame,
// Recv hands back what reply makes of it. The reply stand-in therefore
// runs inside Recv, where the client's transport wrapper counts it as
// time spent waiting, not as client compute.
type loopback struct {
	reply          func(frame []byte) ([]byte, error)
	frame          []byte
	sent, received int64
}

func (l *loopback) Send(msg []byte) error {
	l.frame = msg
	l.sent += int64(len(msg)) + 4
	return nil
}

func (l *loopback) Recv() ([]byte, error) {
	out, err := l.reply(l.frame)
	if err != nil {
		return nil, err
	}
	l.received += int64(len(out)) + 4
	return out, nil
}

func (l *loopback) SentBytes() int64     { return l.sent }
func (l *loopback) ReceivedBytes() int64 { return l.received }

// bfvStation is one BFV preset's client: secret key, seeded symmetric
// encryptor, decryptor, and the loopback that expands and re-marshals.
type bfvStation struct {
	name string
	ctx  *bfv.Context
	enc  *bfv.SymmetricEncryptor
	dec  *bfv.Decryptor
	end  *clientEnd
}

func newBFVStation(name string, params bfv.Parameters, seed [32]byte) (*bfvStation, error) {
	ctx, err := bfv.NewContext(params)
	if err != nil {
		return nil, err
	}
	sk := bfv.NewKeyGenerator(ctx, seed).GenSecretKey()
	lb := &loopback{reply: func(frame []byte) ([]byte, error) {
		ct, err := protocol.UnmarshalAnyBFV(ctx, frame)
		if err != nil {
			return nil, err
		}
		return protocol.MarshalBFV(ct), nil
	}}
	return &bfvStation{
		name: name, ctx: ctx,
		enc: bfv.NewSymmetricEncryptor(ctx, sk, seed),
		dec: bfv.NewDecryptor(ctx, sk),
		end: &clientEnd{Transport: lb},
	}, nil
}

func (s *bfvStation) roundTrip(vals []int64) error {
	vals = vals[:s.ctx.Params.N()]
	sct, err := s.enc.EncryptIntsSeeded(vals)
	if err != nil {
		return err
	}
	if err := s.end.Send(protocol.MarshalSeededBFV(sct)); err != nil {
		return err
	}
	raw, err := s.end.Recv()
	if err != nil {
		return err
	}
	ct, err := protocol.UnmarshalBFV(s.ctx, raw)
	if err != nil {
		return err
	}
	got := s.dec.DecryptInts(ct)
	for i, v := range vals {
		if got[i] != v {
			return mismatchf("%s: slot %d round-trips to %d, want %d", s.name, i, got[i], v)
		}
	}
	return nil
}

// ckksStation is the CKKS set C client, using the public-key encryptor
// the distance client uses.
type ckksStation struct {
	ctx *ckks.Context
	enc *ckks.Encryptor
	dec *ckks.Decryptor
	end *clientEnd
}

func newCKKSStation(seed [32]byte) (*ckksStation, error) {
	ctx, err := ckks.NewContext(ckks.PresetC())
	if err != nil {
		return nil, err
	}
	kg := ckks.NewKeyGenerator(ctx, seed)
	sk := kg.GenSecretKey()
	lb := &loopback{reply: func(frame []byte) ([]byte, error) {
		ct, err := protocol.UnmarshalCKKS(ctx, frame)
		if err != nil {
			return nil, err
		}
		return protocol.MarshalCKKS(ct), nil
	}}
	return &ckksStation{
		ctx: ctx,
		enc: ckks.NewEncryptor(ctx, kg.GenPublicKey(sk), seed),
		dec: ckks.NewDecryptor(ctx, sk),
		end: &clientEnd{Transport: lb},
	}, nil
}

func (s *ckksStation) roundTrip(vals []float64) error {
	ct, err := s.enc.EncryptFloats(vals)
	if err != nil {
		return err
	}
	if err := s.end.Send(protocol.MarshalCKKS(ct)); err != nil {
		return err
	}
	raw, err := s.end.Recv()
	if err != nil {
		return err
	}
	back, err := protocol.UnmarshalCKKS(s.ctx, raw)
	if err != nil {
		return err
	}
	got := s.dec.DecryptFloats(back)
	for i, v := range vals {
		if math.Abs(got[i]-v) > cycleTolerance {
			return mismatchf("ckks-C: slot %d round-trips to %.6f, want %.6f", i, got[i], v)
		}
	}
	return nil
}

// cycleInstance is the three stations one request visits in turn.
type cycleInstance struct {
	env  *cycleEnv
	b, a *bfvStation
	c    *ckksStation
	tr   *tracer
}

func setupCycle(envAny any, nth int, rp runParams) (instance, error) {
	env := envAny.(*cycleEnv)
	inst := &cycleInstance{env: env, tr: rp.tr}
	var err error
	if inst.b, err = newBFVStation("bfv-B", bfv.PresetB(), seedBytes(env.seed, "cycle/keys/bfv-B")); err != nil {
		return nil, err
	}
	if inst.a, err = newBFVStation("bfv-A", bfv.PresetA(), seedBytes(env.seed, "cycle/keys/bfv-A")); err != nil {
		return nil, err
	}
	if inst.c, err = newCKKSStation(seedBytes(env.seed, "cycle/keys/ckks-C")); err != nil {
		return nil, err
	}
	return inst, nil
}

func (c *cycleInstance) callers() []caller { return []caller{c} }
func (c *cycleInstance) close() error      { return nil }

// counters sums the three stations' transport time and traffic.
func (c *cycleInstance) counters() (inTransport time.Duration, bytes int64) {
	for _, e := range []*clientEnd{c.b.end, c.a.end, c.c.end} {
		inTransport += e.inTransport
		bytes += e.SentBytes() + e.ReceivedBytes()
	}
	return
}

func (c *cycleInstance) do(i int, traced bool) (sample, error) {
	n := i % cyclePool
	in0, bytes0 := c.counters()
	t0 := time.Now()
	errB := c.b.roundTrip(c.env.ints[n])
	t1 := time.Now()
	errA := c.a.roundTrip(c.env.ints[n])
	t2 := time.Now()
	errC := c.c.roundTrip(c.env.floats[n])
	t3 := time.Now()
	in1, bytes1 := c.counters()

	if traced && c.tr != nil {
		root := c.tr.add(0, i, spanRequest, t0, t3)
		c.tr.add(root, i, "cycle.bfv-B", t0, t1)
		c.tr.add(root, i, "cycle.bfv-A", t1, t2)
		c.tr.add(root, i, "cycle.ckks-C", t2, t3)
	}
	s := sample{wall: t3.Sub(t0), inTransport: in1 - in0, wireBytes: bytes1 - bytes0, traced: traced}
	if err := errors.Join(errB, errA, errC); err != nil {
		return s, fmt.Errorf("request %d: %w", i, err)
	}
	return s, nil
}
