package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"choco/internal/core"
	"choco/internal/nn"
	"choco/internal/protocol"
	"choco/internal/serve"
)

// lenetEnv is the generated input of both LeNet-Sm workloads: weights,
// a pool of images and their plaintext logits.
type lenetEnv struct {
	seed   int64
	net    *nn.Network
	model  *nn.QuantizedModel
	images [][][]int64
	want   [][]int64
}

// imagePool is how many distinct images a run cycles through; HE work
// is data-oblivious, so the pool only has to defeat accidental caching.
const imagePool = 8

func newLenetEnv(cfg runConfig) (any, error) {
	net := nn.LeNetSmall()
	env := &lenetEnv{
		seed:  cfg.seed,
		net:   net,
		model: nn.SynthesizeWeights(net, 4, seedBytes(cfg.seed, "lenet/weights")),
	}
	// The operators skip a diagonal whose weights are all zero, and at the
	// edge of the FC matrix a diagonal holds a single weight. Drawing no
	// zeros makes the homomorphic op counts a property of the layer
	// shapes, identical for every seed, so they can be compared exactly.
	for _, layer := range env.model.ConvW {
		for _, out := range layer {
			for _, in := range out {
				noZeros(in)
			}
		}
	}
	for _, layer := range env.model.FCW {
		for _, row := range layer {
			noZeros(row)
		}
	}
	for i := 0; i < imagePool; i++ {
		img := nn.SynthesizeImage(net, 4, seedBytes(cfg.seed, fmt.Sprintf("lenet/image/%d", i)))
		want, err := nn.PlainInference(env.model, img)
		if err != nil {
			return nil, err
		}
		env.images = append(env.images, img)
		env.want = append(env.want, want)
	}
	return env, nil
}

func noZeros(w []int64) {
	for i, v := range w {
		if v == 0 {
			w[i] = 1
		}
	}
}

// lenetCaller is one CHOCO client holding its own keys.
type lenetCaller struct {
	env    *lenetEnv
	client *nn.InferenceClient
	end    *clientEnd
	last   core.Stats // the client's own accounting of its latest request
}

func (c *lenetCaller) do(i int, traced bool) (sample, error) {
	k := i % len(c.env.images)
	var logits []int64
	s, err := c.end.measure(i, traced, func() (err error) {
		logits, c.last, err = c.client.Infer(c.env.images[k], c.end)
		return err
	})
	if err != nil {
		return sample{}, fmt.Errorf("request %d: %w", i, err)
	}
	want := c.env.want[k]
	if len(logits) != len(want) {
		return s, mismatchf("request %d: %d logits, oracle has %d", i, len(logits), len(want))
	}
	for j := range want {
		if logits[j] != want[j] {
			return s, mismatchf("request %d: logit %d = %d, nn.PlainInference says %d", i, j, logits[j], want[j])
		}
	}
	return s, checkBytes(c.last, s.wireBytes, 0)
}

// pipeInstance is lenetsm-pipe: one client and one ServerSession joined
// by a protocol.Pipe, no serving tier.
type pipeInstance struct {
	caller    *lenetCaller
	clientEnd *clientEnd
	serverEnd *serverEnd
	pipe      *protocol.Pipe
	done      chan error
	// served is signalled once the server loop has finished a request's
	// bookkeeping (spans flushed, op counts appended), so the caller can
	// read both as soon as its own request has returned.
	served chan struct{}

	keygen   time.Duration   // nn.NewInferenceClient: context + all keys
	keyFrame []byte          // the serialized evaluation-key bundle
	ops      []core.OpCounts // per served request, from ServeOne
}

func setupLenetPipe(envAny any, nth int, rp runParams) (instance, error) {
	env := envAny.(*lenetEnv)
	srv, err := nn.NewInferenceServer(env.model)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	client, err := nn.NewInferenceClient(env.net, seedBytes(env.seed, "lenet/keys/0"))
	if err != nil {
		return nil, err
	}
	// Both channels have room for the one value that can be in flight, so
	// the server loop never blocks on them.
	done, served := make(chan error, 1), make(chan struct{}, 1)
	inst := &pipeInstance{keygen: time.Since(t0), done: done, served: served}
	a, b := protocol.NewPipe()
	inst.pipe = a
	if err := client.Setup(a); err != nil {
		return nil, err
	}
	// ReadSession, unrolled so the replay can reuse the frame.
	if inst.keyFrame, err = b.Recv(); err != nil {
		return nil, err
	}
	sess, err := srv.NewSessionFromFrame(inst.keyFrame)
	if err != nil {
		return nil, err
	}

	inst.clientEnd = &clientEnd{Transport: a, tr: rp.tr}
	inst.serverEnd = &serverEnd{Transport: b, tr: rp.tr}
	inst.caller = &lenetCaller{env: env, client: client, end: inst.clientEnd}
	timed := sess.WithExecutor(newTimingExecutor(env.net, srv.Encoder(), inst.serverEnd))
	go func() {
		for i := 0; ; i++ {
			s, traced := sess, rp.traced(i)
			if traced {
				s = timed
			}
			inst.serverEnd.begin(i, traced)
			ops, err := s.ServeOne(inst.serverEnd)
			inst.serverEnd.flush()
			if err != nil {
				done <- endOfSession(err)
				return
			}
			inst.ops = append(inst.ops, ops)
			served <- struct{}{}
		}
	}()
	return inst, nil
}

func (p *pipeInstance) callers() []caller { return []caller{p} }

// do is the client's request followed, outside the timed region, by the
// wait for the server loop to finish its own bookkeeping.
func (p *pipeInstance) do(i int, traced bool) (sample, error) {
	s, err := p.caller.do(i, traced)
	var mm *mismatchError
	if err == nil || errors.As(err, &mm) {
		<-p.served
	}
	return s, err
}

func (p *pipeInstance) close() error {
	p.pipe.Close()
	return <-p.done
}

// verifyPipeBytes checks that both transport ends agree on the traffic.
func verifyPipeBytes(inst instance) error {
	p := inst.(*pipeInstance)
	return checkEnds(p.clientEnd, p.serverEnd)
}

// serveClients is the concurrency of lenetsm-serve-tcp2. The load comes
// from this one process, so it never exceeds nproc on the 2-core box.
const serveClients = 2

// serveInstance is lenetsm-serve-tcp2: serveClients clients with
// distinct keys and session IDs over TCP loopback through serve.Server
// at its default Config.
type serveInstance struct {
	srv    *serve.Server
	addr   string
	cancel context.CancelFunc
	done   chan error

	clients []*lenetCaller
	conns   []*protocol.Conn
	ids     []string

	setupTime []time.Duration // client-observed SetupSession, key upload included
	stats     serve.Stats     // read after Serve has drained
}

// startServe runs a serve.Server with its default Config on a loopback
// listener.
func startServe(model *nn.QuantizedModel) (*serveInstance, error) {
	backend, err := nn.NewInferenceServer(model)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	inst := &serveInstance{
		srv:    serve.New(backend, serve.Config{}),
		addr:   ln.Addr().String(),
		cancel: cancel,
		done:   done,
	}
	go func() { done <- inst.srv.Serve(ctx, ln) }()
	return inst, nil
}

// dialSession opens (or re-opens) session id at addr and reports how
// long the client waited and whether the server had the keys cached.
func dialSession(client *nn.InferenceClient, addr, id string) (*protocol.Conn, time.Duration, bool, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, 0, false, err
	}
	t := protocol.NewConn(conn)
	t0 := time.Now()
	cached, err := client.SetupSession(t, id)
	if err != nil {
		_ = t.Close() // the session-open failure is the error that matters
		return nil, 0, false, fmt.Errorf("open session %q: %w", id, err)
	}
	return t, time.Since(t0), cached, nil
}

// waitFor polls cond, which reads the server's public counters, until it
// holds.
func waitFor(what string, cond func() bool) error {
	deadline := time.Now().Add(time.Minute)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: not within a minute", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

func setupLenetServe(envAny any, nth int, rp runParams) (instance, error) {
	env := envAny.(*lenetEnv)
	inst, err := startServe(env.model)
	if err != nil {
		return nil, err
	}
	for c := 0; c < serveClients; c++ {
		client, err := nn.NewInferenceClient(env.net, seedBytes(env.seed, fmt.Sprintf("lenet/keys/%d", c)))
		if err != nil {
			_ = inst.close()
			return nil, err
		}
		id := fmt.Sprintf("bench-%d-%d-%d", env.seed, nth, c)
		t, took, _, err := dialSession(client, inst.addr, id)
		if err != nil {
			_ = inst.close()
			return nil, err
		}
		inst.conns = append(inst.conns, t)
		inst.ids = append(inst.ids, id)
		inst.setupTime = append(inst.setupTime, took)
		inst.clients = append(inst.clients, &lenetCaller{env: env, client: client, end: &clientEnd{Transport: t, tr: rp.tr}})
	}
	// The client's key upload returns once the bytes are written; "ready
	// for first request" includes the server decoding them.
	installed := func() bool { return inst.srv.Stats().KeyCacheEntries >= serveClients }
	if err := waitFor("server installs every key bundle", installed); err != nil {
		_ = inst.close()
		return nil, err
	}
	return inst, nil
}

func (s *serveInstance) callers() []caller {
	out := make([]caller, len(s.clients))
	for i, c := range s.clients {
		out[i] = c
	}
	return out
}

// close disconnects the clients, drains Serve, and only then reads the
// server's counters: they fold in at session end, after the last reply
// has already reached the client.
func (s *serveInstance) close() error {
	for _, c := range s.conns {
		_ = c.Close() // the server sees EOF and ends the session; nothing to report
	}
	s.cancel()
	err := <-s.done
	s.stats = s.srv.Stats()
	return err
}

// verifyServeBytes checks the server's folded byte counters against the
// sum of what the clients' transports counted.
func verifyServeBytes(inst instance) error {
	s := inst.(*serveInstance)
	var up, down int64
	for _, c := range s.conns {
		up += c.SentBytes()
		down += c.ReceivedBytes()
	}
	if s.stats.BytesUp != up || s.stats.BytesDown != down {
		return fmt.Errorf("serve.Stats counts %d B up / %d B down, client transports %d / %d",
			s.stats.BytesUp, s.stats.BytesDown, up, down)
	}
	return nil
}
