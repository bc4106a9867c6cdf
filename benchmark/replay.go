package main

import (
	"fmt"
	"net"
	"time"

	"choco/internal/apps/distance"
	"choco/internal/bfv"
	"choco/internal/blake3"
	"choco/internal/ckks"
	"choco/internal/core"
	"choco/internal/nn"
	"choco/internal/nt"
	"choco/internal/par"
	"choco/internal/protocol"
	"choco/internal/ring"
	"choco/internal/sampling"
)

// The layer replay calls each layer's public functions at the
// workloads' exact shapes, outside any request, so a layer's cost is
// known in isolation and can be set against its span in the trace.

// timeCalls reports the median time of one fn call: geo.replayWarmups
// untimed calls, then geo.replayCalls samples of inner back-to-back
// calls each (inner > 1 lifts microsecond kernels above the clock's
// grain).
func timeCalls(geo geometry, inner int, fn func() error) (time.Duration, error) {
	for i := 0; i < geo.replayWarmups; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	samples := make([]float64, geo.replayCalls) // nanoseconds per call
	for i := range samples {
		t0 := time.Now()
		for j := 0; j < inner; j++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		samples[i] = float64(time.Since(t0)) / float64(inner)
	}
	return time.Duration(median(samples)), nil
}

// sheetRow is one named replay; runSheet times it into a metric.
type sheetRow struct {
	name  string
	inner int
	unit  func(time.Duration) float64
	fn    func() error
}

func runSheet(m *metricSet, geo geometry, rows []sheetRow) error {
	for _, r := range rows {
		d, err := timeCalls(geo, r.inner, r.fn)
		if err != nil {
			return fmt.Errorf("replay %s: %w", r.name, err)
		}
		m.set(r.name, r.unit(d))
	}
	return nil
}

func noErr(fn func()) func() error {
	return func() error { fn(); return nil }
}

// steps8 is the rotation batch the hoisted-rotation rows use.
var steps8 = []int{1, 2, 3, 4, 5, 6, 7, 8}

// kernelSheet measures the workload-independent kernels — ring rows,
// BLAKE3, samplers, both schemes' client and evaluator primitives, the
// wire codec and the two transports — at the par width the workload
// runs at. Every traced run includes it.
func kernelSheet(seed int64, geo geometry, m *metricSet) error {
	m.set("par.width", float64(par.Parallelism()))
	vec := 0.0
	if ring.VectorKernelsEnabled() {
		vec = 1
	}
	m.set("ring.vector_kernels", vec)

	var rows []sheetRow
	for _, r := range []struct {
		tag        string
		logN, bits int
	}{{"n4096", 12, 36}, {"n8192", 13, 60}} {
		rr, err := ringRows(seed, r.tag, r.logN, r.bits)
		if err != nil {
			return err
		}
		rows = append(rows, rr...)
	}
	rows = append(rows, primitiveRows(seed)...)
	for _, build := range []func(int64) ([]sheetRow, error){bfvRows, ckksClientRows, ckksEvaluatorRows} {
		rr, err := build(seed)
		if err != nil {
			return err
		}
		rows = append(rows, rr...)
	}
	tr, stop, err := transportRows()
	if err != nil {
		return err
	}
	defer stop()
	return runSheet(m, geo, append(rows, tr...))
}

// ringRows times the per-residue-row kernels on a one-modulus ring, so
// one call is one row at width 1.
func ringRows(seed int64, tag string, logN, bits int) ([]sheetRow, error) {
	qs, err := nt.GenerateNTTPrimesVarBits([]int{bits}, logN)
	if err != nil {
		return nil, err
	}
	r, err := ring.NewRing(logN, qs)
	if err != nil {
		return nil, err
	}
	q := r.Moduli[0].Value
	src := sampling.NewSource(seedBytes(seed, "replay/ring/"+tag), "rows")
	fill := func() *ring.Poly {
		p := r.NewPoly()
		src.UniformMod(p.Coeffs[0], q)
		p.DeclareNTT()
		return p
	}
	a, b0, b1, out0, out1 := fill(), fill(), fill(), fill(), fill()
	s0, s1 := r.ShoupPolyPrecomp(b0), r.ShoupPolyPrecomp(b1)
	row := fill().Coeffs[0]
	g := r.GaloisElementForRotation(1)
	pre := "ring." + tag + "."
	return []sheetRow{
		{pre + "ntt_fwd_row_us", 16, us, noErr(func() { r.NTTForwardRow(0, row) })},
		{pre + "ntt_inv_row_us", 16, us, noErr(func() { r.NTTInverseRow(0, row) })},
		{pre + "mulcoeffs_row_us", 16, us, noErr(func() { r.MulCoeffs(a, b0, out0) })},
		{pre + "shoup_add2_row_us", 16, us, noErr(func() { r.MulCoeffsShoupAdd2(a, b0, s0, out0, b1, s1, out1) })},
		{pre + "automorphism_ntt_row_us", 16, us, noErr(func() { r.AutomorphismNTT(a, g, out0) })},
	}, nil
}

// primitiveRows are the hash and the three samplers at N = 8192.
func primitiveRows(seed int64) []sheetRow {
	const n = 8192
	q := uint64(1)<<60 - 93 // any 60-bit modulus; the samplers only reduce by it
	xof := blake3.NewXOF(seedBytes(seed, "replay/blake3"), []byte("fill"))
	buf := make([]byte, 64<<10)
	src := sampling.NewSource(seedBytes(seed, "replay/sampling"), "rows")
	out := make([]uint64, n)
	return []sheetRow{
		{"blake3.fill_64k_us", 4, us, noErr(func() { xof.Fill(buf) })},
		{"sampling.uniform_n8192_us", 4, us, noErr(func() { src.UniformMod(out, q) })},
		{"sampling.ternary_n8192_us", 4, us, noErr(func() { src.Ternary(out, q) })},
		{"sampling.gaussian_n8192_us", 4, us, noErr(func() { src.Gaussian(out, q, 3.2) })},
	}
}

// bfvRows are the BFV client kernels at sets B and A, the evaluator
// kernels an FC or conv layer is made of at set B, and the set-B codec.
func bfvRows(seed int64) ([]sheetRow, error) {
	var rows []sheetRow
	for _, p := range []struct {
		tag    string
		params bfv.Parameters
	}{{"b", bfv.PresetB()}, {"a", bfv.PresetA()}} {
		ctx, err := bfv.NewContext(p.params)
		if err != nil {
			return nil, err
		}
		ks := seedBytes(seed, "replay/bfv/"+p.tag)
		kg := bfv.NewKeyGenerator(ctx, ks)
		sk := kg.GenSecretKey()
		ecd := bfv.NewEncoder(ctx)
		sym := bfv.NewSymmetricEncryptor(ctx, sk, ks)
		dec := bfv.NewDecryptor(ctx, sk)
		vals := make([]int64, ctx.Params.N())
		for i := range vals {
			vals[i] = int64(i%15) - 7
		}
		pt, err := ecd.EncodeInts(vals)
		if err != nil {
			return nil, err
		}
		sct := sym.EncryptSeeded(pt)
		ct := sct.Expand(ctx)
		pre := "bfv." + p.tag + "."
		rows = append(rows,
			sheetRow{pre + "encrypt_seeded_ms", 1, ms, noErr(func() { sym.EncryptSeeded(pt) })},
			sheetRow{pre + "decrypt_ms", 1, ms, noErr(func() { dec.Decrypt(ct) })},
		)
		if p.tag != "b" {
			continue
		}
		decoded := dec.Decrypt(ct)
		rows = append(rows,
			sheetRow{pre + "encode_us", 4, us, func() error { _, err := ecd.EncodeInts(vals); return err }},
			sheetRow{pre + "decode_us", 4, us, noErr(func() { ecd.DecodeInts(decoded) })},
		)

		seededFrame, fullFrame := protocol.MarshalSeededBFV(sct), protocol.MarshalBFV(ct)
		rows = append(rows,
			sheetRow{"protocol.marshal_seeded_bfv_b_us", 4, us, noErr(func() { protocol.MarshalSeededBFV(sct) })},
			sheetRow{"protocol.unmarshal_any_bfv_b_us", 4, us, func() error { _, err := protocol.UnmarshalAnyBFV(ctx, seededFrame); return err }},
			sheetRow{"protocol.marshal_bfv_b_us", 4, us, noErr(func() { protocol.MarshalBFV(ct) })},
			sheetRow{"protocol.unmarshal_bfv_b_us", 4, us, func() error { _, err := protocol.UnmarshalBFV(ctx, fullFrame); return err }},
		)

		ev := bfv.NewEvaluator(ctx, nil, kg.GenRotationKeys(sk, steps8...))
		dc, err := ev.Decompose(ct)
		if err != nil {
			return nil, err
		}
		pm := ev.PrepareMul(pt)
		rows = append(rows,
			sheetRow{"bfv.decompose_ms", 1, ms, func() error {
				d, err := ev.Decompose(ct)
				if err == nil {
					d.Release()
				}
				return err
			}},
			sheetRow{"bfv.rotate_hoisted8_ms", 1, ms, func() error {
				outs, err := ev.RotateRowsHoisted(ct, steps8)
				for _, o := range outs {
					ev.RecycleCt(o)
				}
				return err
			}},
			sheetRow{"bfv.rotate_lazy_ntt_ms", 1, ms, func() error {
				nc, err := ev.RotateRowsLazyNTT(dc, 1)
				if err == nil {
					ev.RecycleNTT(nc)
				}
				return err
			}},
			sheetRow{"bfv.accumulate_qp_ms", 1, ms, func() error {
				qa := ev.NewQPAccumulator()
				defer qa.Release()
				return ev.AccumulateQP(qa, dc, 1)
			}},
			sheetRow{"bfv.finalize_moddown_ms", 1, ms, func() error {
				// Finalizing consumes the accumulator, so each call folds
				// one ciphertext in first; AddLazy is a plain copy-add.
				qa := ev.NewQPAccumulator()
				if err := ev.AddLazy(qa, ct); err != nil {
					return err
				}
				ev.RecycleCt(ev.FinalizeModDown(qa))
				return nil
			}},
			sheetRow{"bfv.prepare_mul_ms", 1, ms, noErr(func() { ev.PrepareMul(pt) })},
			sheetRow{"bfv.mulplain_ms", 1, ms, noErr(func() { ev.RecycleCt(ev.MulPlain(ct, pm)) })},
			sheetRow{"bfv.add_us", 4, us, noErr(func() { ev.RecycleCt(ev.Add(ct, ct)) })},
		)
	}
	return rows, nil
}

// ckksClientRows are the CKKS client kernels and codec at set C.
func ckksClientRows(seed int64) ([]sheetRow, error) {
	ctx, err := ckks.NewContext(ckks.PresetC())
	if err != nil {
		return nil, err
	}
	ks := seedBytes(seed, "replay/ckks/c")
	kg := ckks.NewKeyGenerator(ctx, ks)
	sk := kg.GenSecretKey()
	ecd := ckks.NewEncoder(ctx)
	enc := ckks.NewEncryptor(ctx, kg.GenPublicKey(sk), ks)
	dec := ckks.NewDecryptor(ctx, sk)
	vals := make([]float64, ctx.Params.Slots())
	for i := range vals {
		vals[i] = float64(i%100)/50 - 1
	}
	level, scale := ctx.Params.MaxLevel(), ctx.Params.DefaultScale()
	pt, err := ecd.EncodeFloats(vals, level, scale)
	if err != nil {
		return nil, err
	}
	ct := enc.Encrypt(pt)
	decrypted := dec.Decrypt(ct)
	frame := protocol.MarshalCKKS(ct)
	return []sheetRow{
		{"ckks.c.encode_ms", 1, ms, func() error { _, err := ecd.EncodeFloats(vals, level, scale); return err }},
		{"ckks.c.encrypt_ms", 1, ms, noErr(func() { enc.Encrypt(pt) })},
		{"ckks.c.decrypt_ms", 1, ms, noErr(func() { dec.Decrypt(ct) })},
		{"ckks.c.decode_ms", 1, ms, noErr(func() { ecd.DecodeFloats(decrypted) })},
		{"protocol.marshal_ckks_c_us", 4, us, noErr(func() { protocol.MarshalCKKS(ct) })},
		{"protocol.unmarshal_ckks_c_us", 4, us, func() error { _, err := protocol.UnmarshalCKKS(ctx, frame); return err }},
	}, nil
}

// ckksEvaluatorRows are the operations one distance query is made of,
// at distance.PresetDistance, on a ciphertext at the level the server
// sees them.
func ckksEvaluatorRows(seed int64) ([]sheetRow, error) {
	ctx, err := ckks.NewContext(distance.PresetDistance())
	if err != nil {
		return nil, err
	}
	ks := seedBytes(seed, "replay/ckks/distance")
	kg := ckks.NewKeyGenerator(ctx, ks)
	sk := kg.GenSecretKey()
	ecd := ckks.NewEncoder(ctx)
	enc := ckks.NewEncryptor(ctx, kg.GenPublicKey(sk), ks)
	ev := ckks.NewEvaluator(ctx, kg.GenRelinearizationKey(sk), kg.GenRotationKeys(sk, steps8...))
	vals := make([]float64, ctx.Params.Slots())
	for i := range vals {
		vals[i] = float64(i%100)/50 - 1
	}
	ct, err := enc.EncryptFloats(vals)
	if err != nil {
		return nil, err
	}
	sq, err := ev.MulRelin(ct, ct)
	if err != nil {
		return nil, err
	}
	return []sheetRow{
		// Encode + subtract, as the distance server's subPlain does.
		{"ckks.subplain_ms", 1, ms, func() error {
			pt, err := ecd.EncodeFloats(vals, ct.Level, ct.Scale)
			if err != nil {
				return err
			}
			_, err = ev.SubPlain(ct, pt)
			return err
		}},
		{"ckks.mulrelin_ms", 1, ms, func() error { _, err := ev.MulRelin(ct, ct); return err }},
		{"ckks.rescale_ms", 1, ms, func() error { _, err := ev.Rescale(sq); return err }},
		{"ckks.rotate_ms", 1, ms, func() error { _, err := ev.RotateLeft(sq, 1); return err }},
		{"ckks.rotate_hoisted8_ms", 1, ms, func() error { _, err := ev.RotateLeftHoisted(sq, steps8); return err }},
		{"ckks.rotsum_lazy8_ms", 1, ms, func() error { _, err := ev.RotateSumLazy(sq, steps8); return err }},
	}, nil
}

// rttFrame is the ping-pong payload: one bfv-B ciphertext's worth.
const rttFrame = 128 << 10

// echo answers every frame on t with the same frame until Recv fails.
func echo(t protocol.Transport, done chan<- struct{}) {
	defer close(done)
	for {
		msg, err := t.Recv()
		if err != nil {
			return
		}
		if t.Send(msg) != nil {
			return
		}
	}
}

// transportRows time one round trip of a 128 KiB frame through the
// in-memory pipe and through framed TCP on loopback, and the cost of
// fanning work out over par. stop shuts the two echo peers down and
// waits for them.
func transportRows() (rows []sheetRow, stop func(), err error) {
	payload := make([]byte, rttFrame)
	pingPong := func(t protocol.Transport) func() error {
		return func() error {
			if err := t.Send(payload); err != nil {
				return err
			}
			_, err := t.Recv()
			return err
		}
	}

	a, b := protocol.NewPipe()
	pipeDone := make(chan struct{})
	go echo(b, pipeDone)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		a.Close()
		<-pipeDone
		return nil, nil, err
	}
	tcpDone := make(chan struct{})
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			close(tcpDone)
			return
		}
		srv := protocol.NewConn(conn)
		srv.SetReadTimeout(time.Minute)
		srv.SetWriteTimeout(time.Minute)
		echo(srv, tcpDone)
		_ = conn.Close() // echo has already seen the peer go away
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		a.Close()
		_ = ln.Close() // Accept fails and the goroutine ends
		<-pipeDone
		<-tcpDone
		return nil, nil, err
	}
	cli := protocol.NewConn(conn)
	cli.SetReadTimeout(time.Minute)
	cli.SetWriteTimeout(time.Minute)
	stop = func() {
		a.Close()
		_ = cli.Close() // unblocks the TCP echo; nothing to report
		_ = ln.Close()
		<-pipeDone
		<-tcpDone
	}
	return []sheetRow{
		{"protocol.pipe_rtt_128k_us", 4, us, pingPong(a)},
		{"protocol.tcp_rtt_128k_us", 4, us, pingPong(cli)},
		{"par.for_overhead_us", 16, us, noErr(func() { par.For(2, func(int) {}) })},
	}, stop, nil
}

// lenetOps are LeNet-Sm's three linear layers compiled against a
// client's real evaluation keys, with one encrypted input each.
type lenetOps struct {
	ctx   *bfv.Context
	ecd   *bfv.Encoder
	ev    *bfv.Evaluator
	slots int

	conv  []*core.Conv2D
	convX []*bfv.Ciphertext
	convA [][][]int64 // plaintext activations, for the pack replay
	fc    *core.FC
	fcX   *bfv.Ciphertext
	fcA   []int64
}

// newLenetOps rebuilds the layers from the model and installs the keys
// from a serialized bundle — the frame the client really uploaded.
func newLenetOps(env *lenetEnv, keyFrame []byte) (*lenetOps, error) {
	ctx, err := bfv.NewContext(env.net.Params)
	if err != nil {
		return nil, err
	}
	kb, err := protocol.UnmarshalKeyBundle(ctx, keyFrame)
	if err != nil {
		return nil, err
	}
	o := &lenetOps{
		ctx: ctx, ecd: bfv.NewEncoder(ctx), slots: ctx.Params.Slots(),
		ev: bfv.NewEvaluator(ctx, kb.Relin, kb.Galois),
	}
	enc := bfv.NewEncryptor(ctx, kb.PK, seedBytes(env.seed, "replay/lenet/encryptor"))
	rng := seededRand(env.seed, "replay/lenet/activations")
	acts := func(n int) []int64 {
		v := make([]int64, n)
		for i := range v {
			v[i] = int64(rng.Intn(16))
		}
		return v
	}
	rowSize := ctx.Params.N() / 2
	h, w, c := env.net.InH, env.net.InW, env.net.InC
	for i, l := range env.net.Layers {
		switch l.Kind {
		case nn.Conv:
			spec := core.ConvSpec{InH: h, InW: w, InC: c, KH: l.KH, KW: l.KW, OutC: l.OutC}
			conv, err := core.NewConv2D(spec, env.model.ConvW[i], rowSize)
			if err != nil {
				return nil, err
			}
			image := make([][]int64, c)
			for ch := range image {
				image[ch] = acts(h * w)
			}
			packed, err := conv.PackInput(image, o.slots)
			if err != nil {
				return nil, err
			}
			ct, err := enc.EncryptInts(packed)
			if err != nil {
				return nil, err
			}
			o.conv, o.convX, o.convA = append(o.conv, conv), append(o.convX, ct), append(o.convA, image)
			c = l.OutC
		case nn.FC:
			fc, err := core.NewFC(h*w*c, l.FCOut, env.model.FCW[i], rowSize)
			if err != nil {
				return nil, err
			}
			o.fcA = acts(h * w * c)
			packed, err := fc.PackInput(o.fcA, o.slots)
			if err != nil {
				return nil, err
			}
			if o.fcX, err = enc.EncryptInts(packed); err != nil {
				return nil, err
			}
			o.fc = fc
			h, w, c = 1, 1, l.FCOut
		case nn.Pool:
			h, w = h/2, w/2
		}
	}
	if len(o.conv) != 2 || o.fc == nil {
		return nil, fmt.Errorf("LeNet-Sm should have 2 conv + 1 fc layers, found %d conv", len(o.conv))
	}
	return o, nil
}

// applyRows replay the serial path lenetsm-pipe runs, and the client's
// packing around it. Like ServeOne, they leave the outputs to the
// garbage collector.
func (o *lenetOps) applyRows() []sheetRow {
	convRow := func(k int) func() error {
		return func() error {
			_, _, err := o.conv[k].Apply(o.ev, o.ecd, o.convX[k], o.slots)
			return err
		}
	}
	decoded := make([]int64, o.ctx.Params.N())
	return []sheetRow{
		{"core.conv1_apply_ms", 1, ms, convRow(0)},
		{"core.conv2_apply_ms", 1, ms, convRow(1)},
		{"core.fc_apply_ms", 1, ms, func() error {
			_, _, err := o.fc.Apply(o.ev, o.ecd, o.fcX, o.slots)
			return err
		}},
		{"core.pack_input_us", 4, us, func() error { _, err := o.conv[1].PackInput(o.convA[1], o.slots); return err }},
		{"core.extract_output_us", 16, us, noErr(func() { o.conv[1].ExtractOutput(decoded, 0) })},
	}
}

// batchRows replay the path lenetsm-serve-tcp2 runs: ApplyBatch over a
// warm plaintext cache, alone and with a batch-mate under other keys,
// outputs left to the garbage collector as serve's executor leaves them.
func (o *lenetOps) batchRows(mate *lenetOps) []sheetRow {
	cache := core.NewPlainCache(core.DefaultPlainCacheBytes)
	convBatch := func(name string, k int, items func() []core.BatchInput) sheetRow {
		return sheetRow{name, 1, ms, func() error {
			_, _, err := o.conv[k].ApplyBatch(o.ecd, items(), o.slots, cache)
			return err
		}}
	}
	fcBatch := func(name string, items func() []core.BatchInput) sheetRow {
		return sheetRow{name, 1, ms, func() error {
			_, _, err := o.fc.ApplyBatch(o.ecd, items(), o.slots, cache)
			return err
		}}
	}
	one := func(x *bfv.Ciphertext) func() []core.BatchInput {
		return func() []core.BatchInput { return []core.BatchInput{{Ev: o.ev, Ct: x}} }
	}
	two := func(x, y *bfv.Ciphertext) func() []core.BatchInput {
		return func() []core.BatchInput { return []core.BatchInput{{Ev: o.ev, Ct: x}, {Ev: mate.ev, Ct: y}} }
	}
	perItem := func(r sheetRow) sheetRow {
		r.unit = func(d time.Duration) float64 { return ms(d) / 2 }
		return r
	}
	return []sheetRow{
		convBatch("core.conv1_batch1_warm_ms", 0, one(o.convX[0])),
		convBatch("core.conv2_batch1_warm_ms", 1, one(o.convX[1])),
		fcBatch("core.fc_batch1_warm_ms", one(o.fcX)),
		perItem(convBatch("core.conv2_batch2_item_ms", 1, two(o.convX[1], mate.convX[1]))),
		perItem(fcBatch("core.fc_batch2_item_ms", two(o.fcX, mate.fcX))),
	}
}
