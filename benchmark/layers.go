package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"time"

	"choco/internal/apps/distance"
	"choco/internal/bfv"
	"choco/internal/fabric"
	"choco/internal/nn"
	"choco/internal/par"
	"choco/internal/protocol"
	"choco/internal/serve"
)

// Each workload's traced run adds the layer metrics only it can measure:
// the partition of its own traced requests, the replay of its own
// layers, and the counters of the tier it runs through.

// minAccountedShare is the floor the request partition is held to: at
// least this much of a traced lenetsm-pipe request must be explained by
// named client or server work.
const minAccountedShare = 0.95

// medianOf reduces one field of every traced request to its median.
func medianOf(accts []requestAccount, field func(requestAccount) float64) float64 {
	v := make([]float64, len(accts))
	for i, a := range accts {
		v[i] = field(a)
	}
	return median(v)
}

func nsToMs(ns int64) float64 { return ms(time.Duration(ns)) }

func lenetPipeLayers(envAny any, instAny instance, rp runParams, m *metricSet) error {
	env, inst := envAny.(*lenetEnv), instAny.(*pipeInstance)

	accts := accounts(rp.tr.linked())
	if len(accts) == 0 {
		return fmt.Errorf("no traced requests recorded")
	}
	server := func(name string) func(requestAccount) float64 {
		return func(a requestAccount) float64 { return nsToMs(a.server[name]) }
	}
	m.set("nn.client_self_ms", medianOf(accts, func(a requestAccount) float64 { return nsToMs(a.clientSelf) }))
	m.set("nn.server_conv1_ms", medianOf(accts, server("server.exec.conv1")))
	m.set("nn.server_conv2_ms", medianOf(accts, server("server.exec.conv2")))
	m.set("nn.server_fc_ms", medianOf(accts, server("server.exec.fc")))
	m.set("nn.server_decode_ms", medianOf(accts, server("server.decode")))
	m.set("nn.server_encode_send_ms", medianOf(accts, server("server.encode_send")))
	m.set("nn.wire_ms", medianOf(accts, func(a requestAccount) float64 { return nsToMs(a.wire) }))
	share := medianOf(accts, requestAccount.accountedShare)
	m.set("nn.accounted_share", share)
	if share < minAccountedShare {
		return fmt.Errorf("nn.accounted_share = %.4f, below %.2f: the spans do not explain the request", share, minAccountedShare)
	}

	// HE work is data-oblivious: every request must cost the same ops.
	for i, ops := range inst.ops {
		if ops != inst.ops[0] {
			return fmt.Errorf("request %d ran %+v homomorphic ops, request 0 ran %+v", i, ops, inst.ops[0])
		}
	}
	m.set("core.rotations_per_request", float64(inst.ops[0].Rotations))
	m.set("core.plainmults_per_request", float64(inst.ops[0].PlainMults))
	m.set("core.adds_per_request", float64(inst.ops[0].Adds))

	ops, err := newLenetOps(env, inst.keyFrame)
	if err != nil {
		return fmt.Errorf("rebuild LeNet-Sm layers: %w", err)
	}
	plan := ops.fc.Plan(ops.fc.HoistLevel())
	m.set("core.fc_plan_decompositions", float64(plan.Decompositions))
	m.set("core.fc_plan_lazy_products", float64(plan.LazyProducts))
	m.set("core.fc_plan_moddowns", float64(plan.ModDowns))
	if err := runSheet(m, rp.geo, ops.applyRows()); err != nil {
		return err
	}
	m.set("bfv.b.keygen_s", inst.keygen.Seconds())

	// What the client's kernels, counted and replayed, add up to against
	// what the client was measured to spend: encryptions × (pack + encode
	// + encrypt + marshal) + decryptions × (unmarshal + decrypt + decode)
	// + one extract per output channel. The plaintext ReLU and pooling
	// are the unmodelled rest.
	enc, dec := inst.caller.last.Encryptions, inst.caller.last.Decryptions
	extracts := 0
	for _, l := range env.net.Layers {
		switch l.Kind {
		case nn.Conv:
			extracts += l.OutC
		case nn.FC:
			extracts++
		}
	}
	model := float64(enc)*(m.get("core.pack_input_us")/1e3+m.get("bfv.b.encode_us")/1e3+m.get("bfv.b.encrypt_seeded_ms")+m.get("protocol.marshal_seeded_bfv_b_us")/1e3) +
		float64(dec)*(m.get("protocol.unmarshal_bfv_b_us")/1e3+m.get("bfv.b.decrypt_ms")+m.get("bfv.b.decode_us")/1e3) +
		float64(extracts)*m.get("core.extract_output_us")/1e3
	m.set("nn.client_model_share", model/m.get("nn.client_self_ms"))

	// Scaling: the same request with every core the box has, not the
	// pinned one.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	defer par.SetParallelism(par.Parallelism())
	par.SetParallelism(runtime.NumCPU())
	wide := runLoop(inst.callers(), rp.next(), rp.geo.allCoresRequests, 0, rp)
	if wide.firstErr != nil {
		return fmt.Errorf("all-cores requests: %w", wide.firstErr)
	}
	m.set("par.allcores_request_ms", medianWall(wide.samples))
	return nil
}

func medianWall(samples []sample) float64 {
	v := make([]float64, len(samples))
	for i, s := range samples {
		v[i] = ms(s.wall)
	}
	return median(v)
}

func lenetServeLayers(envAny any, instAny instance, rp runParams, m *metricSet) error {
	env, inst := envAny.(*lenetEnv), instAny.(*serveInstance)
	m.set("serve.setup_ms", median(durationsMs(inst.setupTime)))

	// Solo: every client but the first leaves, so the tier, TCP and the
	// warm plaintext cache are all that separates this from lenetsm-pipe.
	for _, c := range inst.conns[1:] {
		_ = c.Close() // the server sees EOF and ends that session
	}
	alone := func() bool { return inst.srv.Stats().SessionsActive <= 1 }
	if err := waitFor("the other sessions end", alone); err != nil {
		return err
	}
	first := inst.clients[0]
	solo := runLoop([]caller{first}, rp.next(), rp.geo.soloRequests, 0, rp)
	if solo.firstErr != nil {
		return fmt.Errorf("solo requests: %w", solo.firstErr)
	}
	m.set("serve.solo_request_ms_p50", medianWall(solo.samples))

	// Reconnect under the same session ID: the keys are cached.
	_ = inst.conns[0].Close() // reopened on the next line
	t, took, cached, err := dialSession(first.client, inst.addr, inst.ids[0])
	if err != nil {
		return err
	}
	inst.conns = append(inst.conns, t)
	first.end.Transport = t
	if !cached {
		return fmt.Errorf("reconnect of session %q uploaded its keys again", inst.ids[0])
	}
	m.set("serve.reconnect_ms", ms(took))
	if again := runLoop([]caller{first}, rp.next()+rp.geo.soloRequests, 1, 0, rp); again.firstErr != nil {
		return fmt.Errorf("request after reconnect: %w", again.firstErr)
	}

	// Replay the batched kernels under both sessions' real keys.
	var ops []*lenetOps
	for _, id := range inst.ids {
		frame, ok := inst.srv.LookupKeyFrame(id)
		if !ok {
			return fmt.Errorf("server no longer caches the keys of session %q", id)
		}
		o, err := newLenetOps(env, frame)
		if err != nil {
			return err
		}
		ops = append(ops, o)
	}
	if err := runSheet(m, rp.geo, ops[0].batchRows(ops[1])); err != nil {
		return err
	}
	frame, _ := inst.srv.LookupKeyFrame(inst.ids[0])
	ctx, err := bfv.NewContext(env.net.Params)
	if err != nil {
		return err
	}
	if err := runSheet(m, rp.geo, []sheetRow{{"protocol.unmarshal_keybundle_ms", 1, ms, func() error {
		_, err := protocol.UnmarshalKeyBundle(ctx, frame)
		return err
	}}}); err != nil {
		return err
	}
	return fabricLayers(env, first.client, rp, m)
}

func lenetServeCounters(instAny instance, m *metricSet) {
	st := instAny.(*serveInstance).stats
	b := st.Batching
	if n := float64(st.Inferences); n > 0 {
		m.set("serve.batch_rounds_per_request", float64(b.Rounds)/n)
		// The same network as lenetsm-pipe: the tier's own op counters
		// must come to the same per-request counts.
		m.set("core.rotations_per_request", float64(st.ServerOps.Rotations)/n)
		m.set("core.plainmults_per_request", float64(st.ServerOps.PlainMults)/n)
		m.set("core.adds_per_request", float64(st.ServerOps.Adds)/n)
	}
	if b.Items > 0 {
		m.set("serve.coalesced_share", float64(b.CoalescedItems)/float64(b.Items))
	}
	if lookups := b.PlainCache.Hits + b.PlainCache.Misses; lookups > 0 {
		m.set("serve.plaincache_hit_share", float64(b.PlainCache.Hits)/float64(lookups))
	}
	m.set("serve.serial_rescues", float64(b.SerialRescues))
	m.set("serve.sessions_rejected", float64(st.SessionsRejected))
}

// fabricLayers sends the same client through a fabric.Router in front of
// one fabric.Shard: what the router's splice adds to a solo request, and
// what a reconnect through it costs. It guards the hardening work and
// gates nothing end to end.
func fabricLayers(env *lenetEnv, client *nn.InferenceClient, rp runParams, m *metricSet) (err error) {
	backend, err := nn.NewInferenceServer(env.model)
	if err != nil {
		return err
	}
	var lns [3]net.Listener // shard clients, shard peers, router
	for i := range lns {
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			for _, ln := range lns[:i] {
				_ = ln.Close() // nothing is served yet
			}
			return err
		}
	}
	clientLn, peerLn, routerLn := lns[0], lns[1], lns[2]
	ctx, cancel := context.WithCancel(context.Background())
	shard := fabric.NewShard("bench-shard", backend, serve.Config{})
	router := fabric.NewRouter(fabric.RouterConfig{
		Members:        []fabric.Member{{ID: shard.ID, Addr: clientLn.Addr().String(), PeerAddr: peerLn.Addr().String()}},
		HealthInterval: -1,
	})
	shardDone, routerDone := make(chan error, 1), make(chan error, 1)
	go func() { shardDone <- shard.Run(ctx, clientLn, peerLn) }()
	go func() { routerDone <- router.Serve(ctx, routerLn) }()
	var conns []*protocol.Conn
	defer func() {
		for _, c := range conns {
			_ = c.Close() // ends the spliced session; nothing to report
		}
		cancel()
		for _, done := range []chan error{routerDone, shardDone} {
			if stopErr := <-done; err == nil {
				err = stopErr
			}
		}
	}()

	id := fmt.Sprintf("bench-fabric-%d", env.seed)
	addr := routerLn.Addr().String()
	t, _, _, err := dialSession(client, addr, id)
	if err != nil {
		return err
	}
	conns = append(conns, t)
	routed := &lenetCaller{env: env, client: client, end: &clientEnd{Transport: t}}
	// The router acks the hello before the shard has decoded the keys;
	// two untimed requests absorb that, as the main warm-up does.
	from := rp.next() + rp.geo.soloRequests + 1
	if warm := runLoop([]caller{routed}, from, 2, 0, rp); warm.firstErr != nil {
		return fmt.Errorf("fabric warm-up: %w", warm.firstErr)
	}
	loop := runLoop([]caller{routed}, from+2, rp.geo.fabricRequests, 0, rp)
	if loop.firstErr != nil {
		return fmt.Errorf("fabric requests: %w", loop.firstErr)
	}
	m.set("fabric.router_added_ms", medianWall(loop.samples)-m.get("serve.solo_request_ms_p50"))

	_ = t.Close() // reopened on the next line
	t, took, cached, err := dialSession(client, addr, id)
	if err != nil {
		return err
	}
	conns = append(conns, t)
	if !cached {
		return fmt.Errorf("fabric reconnect of session %q uploaded its keys again", id)
	}
	m.set("fabric.reconnect_ms", ms(took))
	return nil
}

func knnLayers(envAny any, instAny instance, rp runParams, m *metricSet) error {
	inst := instAny.(*knnInstance)
	accts := accounts(rp.tr.linked())
	if len(accts) == 0 {
		return fmt.Errorf("no traced requests recorded")
	}
	m.set("distance.client_self_ms", medianOf(accts, func(a requestAccount) float64 { return nsToMs(a.clientSelf) }))
	m.set("distance.server_compute_ms", medianOf(accts, func(a requestAccount) float64 { return nsToMs(a.server["server.compute"]) }))
	m.set("ckks.keygen_s", inst.keygen.Seconds())

	// The rotation-heavy CKKS path: watched, not gated.
	var walls []float64
	for i := 0; i < rp.geo.collapseQueries; i++ {
		s, err := inst.query(rp.next()+i, false, distance.CollapsedPointMajor)
		if err != nil {
			return fmt.Errorf("collapsed query: %w", err)
		}
		walls = append(walls, ms(s.wall))
	}
	m.set("distance.collapsed_query_ms", median(walls))
	return nil
}
