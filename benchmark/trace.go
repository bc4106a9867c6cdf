package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"choco/internal/bfv"
	"choco/internal/core"
	"choco/internal/nn"
	"choco/internal/protocol"
)

// The per-layer account is taken from outside the program under test:
// timing wrappers around protocol.Transport on both ends and a timing
// nn.KernelExecutor. One request is one root span; the client's
// transport calls are its children, and the server's work for a layer
// is a child of the client Recv that waited for it. A span's self time
// is its duration minus the part its children cover, so
//
//	root self            = time the client computed (nn.client_self_ms)
//	client.recv self     = time the client waited and the server was not
//	                       busy for it: hand-off, scheduling, the wire
//	server.* durations   = decode / kernel / encode+send
//
// and the self times of one request's tree sum to its wall-clock.

// span is one timed interval. Start and End are nanoseconds since the
// tracer's epoch; Parent is 0 for a root. Spans of one request share
// Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`

	// seq orders a server span's layer within its request until link
	// has found the client Recv that waited for it.
	seq int
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its ID.
func (t *tracer) add(parent, req int, name string, start, end time.Time) int {
	return t.addSeq(parent, req, name, start, end, 0)
}

func (t *tracer) addSeq(parent, req int, name string, start, end time.Time, seq int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
		seq: seq,
	})
	return id
}

// linked returns a copy of the spans recorded so far with every server
// span attached to the client Recv that waited for it.
func (t *tracer) linked() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	link(out)
	return out
}

// unlinked marks a server span whose parent link has yet to resolve.
const unlinked = -1

const (
	spanRequest    = "request"
	spanClientSend = "client.send"
	spanClientRecv = "client.recv"
)

// link resolves server spans to the client Recv that waited for them:
// the server's k-th busy period in a request was caused by the client's
// k-th upload (a run of Sends with no Recv between them), and the first
// Recv after that upload is the one that blocks on it. Spans that find
// no such Recv hang off the request root.
func link(spans []span) {
	type reqIndex struct {
		root    int
		waiters []int // ID of the first client.recv after each upload
	}
	byReq := map[int]*reqIndex{}
	idx := func(req int) *reqIndex {
		if byReq[req] == nil {
			byReq[req] = &reqIndex{}
		}
		return byReq[req]
	}
	// Client spans are appended by one goroutine, so slice order is
	// their call order.
	lastWasSend := map[int]bool{}
	for _, s := range spans {
		switch s.Name {
		case spanRequest:
			idx(s.Req).root = s.ID
		case spanClientSend:
			lastWasSend[s.Req] = true
		case spanClientRecv:
			if lastWasSend[s.Req] {
				ri := idx(s.Req)
				ri.waiters = append(ri.waiters, s.ID)
			}
			lastWasSend[s.Req] = false
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent != unlinked {
			continue
		}
		ri := idx(s.Req)
		s.Parent = ri.root
		if s.seq < len(ri.waiters) {
			s.Parent = ri.waiters[s.seq]
		}
	}
}

// selfTimes returns each span's duration minus the part of its interval
// that its child spans cover (children are clipped to the parent and
// overlapping children are counted once).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// requestAccount is one traced request split by who was working.
type requestAccount struct {
	total      int64            // root span
	clientSelf int64            // root self: client compute
	wire       int64            // client sends + waiting not covered by server work
	server     map[string]int64 // server span durations by name
}

// accountedShare is the part of the request's wall-clock that a named
// piece of work explains: everything except the wire residue.
func (a requestAccount) accountedShare() float64 {
	if a.total == 0 {
		return 0
	}
	return 1 - float64(a.wire)/float64(a.total)
}

// accounts partitions every traced request in spans (already linked).
func accounts(spans []span) []requestAccount {
	self := selfTimes(spans)
	byReq := map[int]*requestAccount{}
	var order []int
	for _, s := range spans {
		a := byReq[s.Req]
		if a == nil {
			a = &requestAccount{server: map[string]int64{}}
			byReq[s.Req] = a
			order = append(order, s.Req)
		}
		switch s.Name {
		case spanRequest:
			a.total = s.dur()
			a.clientSelf = self[s.ID]
		case spanClientSend:
			a.wire += s.dur()
		case spanClientRecv:
			a.wire += self[s.ID]
		default:
			a.server[s.Name] += s.dur()
		}
	}
	sort.Ints(order)
	out := make([]requestAccount, 0, len(order))
	for _, r := range order {
		if byReq[r].total > 0 {
			out = append(out, *byReq[r])
		}
	}
	return out
}

// writeTrace stores the spans as JSON under dir.
func writeTrace(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}

// clientEnd wraps the client's transport. It always accumulates the
// time spent inside Send/Recv (client_ms_p05 is an end-to-end metric,
// measured with tracing off); with a tracer set and a request open it
// also records one span per call.
type clientEnd struct {
	protocol.Transport
	inTransport time.Duration

	tr        *tracer
	req       int
	reqStart  time.Time
	pending   []pendingSpan
	recording bool
}

type pendingSpan struct {
	name       string
	start, end time.Time
}

func (c *clientEnd) Send(msg []byte) error {
	t0 := time.Now()
	err := c.Transport.Send(msg)
	t1 := time.Now()
	c.inTransport += t1.Sub(t0)
	if c.recording {
		c.pending = append(c.pending, pendingSpan{spanClientSend, t0, t1})
	}
	return err
}

func (c *clientEnd) Recv() ([]byte, error) {
	t0 := time.Now()
	msg, err := c.Transport.Recv()
	t1 := time.Now()
	c.inTransport += t1.Sub(t0)
	if c.recording {
		c.pending = append(c.pending, pendingSpan{spanClientRecv, t0, t1})
	}
	return msg, err
}

// begin opens request req; its transport calls are recorded when traced.
func (c *clientEnd) begin(req int, traced bool) {
	c.req = req
	c.recording = traced && c.tr != nil
	c.pending = c.pending[:0]
	c.reqStart = time.Now()
}

// end closes the request, writing the root span and its children.
func (c *clientEnd) end() {
	if !c.recording {
		return
	}
	root := c.tr.add(0, c.req, spanRequest, c.reqStart, time.Now())
	for _, p := range c.pending {
		c.tr.add(root, c.req, p.name, p.start, p.end)
	}
	c.recording = false
}

// measure runs one request through this end: it opens request i, times
// fn, closes the request, and reports what the transport saw meanwhile.
func (c *clientEnd) measure(i int, traced bool, fn func() error) (sample, error) {
	sent0, recv0, in0 := c.SentBytes(), c.ReceivedBytes(), c.inTransport
	c.begin(i, traced)
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0)
	c.end()
	return sample{
		wall:        wall,
		inTransport: c.inTransport - in0,
		wireBytes:   c.SentBytes() - sent0 + c.ReceivedBytes() - recv0,
		traced:      traced,
	}, err
}

// serverEnd wraps the server's transport. A busy period runs from the
// return of the Recv that delivered a layer's input to the return of the
// last Send of its outputs; the timing executor marks the kernel inside
// it, which splits the period into decode / kernel / encode+send.
type serverEnd struct {
	protocol.Transport
	tr *tracer

	req      int
	traced   bool
	layerSeq int

	recvRet          time.Time
	kernelName       string
	kernelIn         time.Time
	kernelOut        time.Time
	sendRet          time.Time
	busyOpen, kernel bool
}

func (s *serverEnd) Recv() ([]byte, error) {
	s.flush()
	msg, err := s.Transport.Recv()
	s.recvRet = time.Now()
	return msg, err
}

func (s *serverEnd) Send(msg []byte) error {
	err := s.Transport.Send(msg)
	s.sendRet = time.Now()
	s.busyOpen = true
	return err
}

// begin opens request req on the server side.
func (s *serverEnd) begin(req int, traced bool) {
	s.req, s.traced, s.layerSeq = req, traced && s.tr != nil, 0
	s.busyOpen, s.kernel = false, false
}

// flush closes the open busy period, if any, into spans.
func (s *serverEnd) flush() {
	if !s.busyOpen {
		return
	}
	s.busyOpen = false
	if !s.traced {
		s.kernel = false
		return
	}
	if s.kernel {
		s.tr.addSeq(unlinked, s.req, "server.decode", s.recvRet, s.kernelIn, s.layerSeq)
		s.tr.addSeq(unlinked, s.req, s.kernelName, s.kernelIn, s.kernelOut, s.layerSeq)
		s.tr.addSeq(unlinked, s.req, "server.encode_send", s.kernelOut, s.sendRet, s.layerSeq)
	} else {
		s.tr.addSeq(unlinked, s.req, "server.compute", s.recvRet, s.sendRet, s.layerSeq)
	}
	s.kernel = false
	s.layerSeq++
}

// timingExecutor is the nn.KernelExecutor installed on traced requests.
// It runs exactly the direct serial path ServeOne takes without an
// executor and tells the server end when the kernel ran.
type timingExecutor struct {
	ecd   *bfv.Encoder
	end   *serverEnd
	names map[int]string // layer index → span name
}

// newTimingExecutor names the network's linear layers conv1, conv2, …,
// fc (fc1, fc2, … when there are several).
func newTimingExecutor(net *nn.Network, ecd *bfv.Encoder, end *serverEnd) *timingExecutor {
	names := map[int]string{}
	convs, fcs := 0, 0
	_, totalFC, _, _ := net.LinearLayerCount()
	for i, l := range net.Layers {
		switch l.Kind {
		case nn.Conv:
			convs++
			names[i] = fmt.Sprintf("server.exec.conv%d", convs)
		case nn.FC:
			fcs++
			names[i] = "server.exec.fc"
			if totalFC > 1 {
				names[i] = fmt.Sprintf("server.exec.fc%d", fcs)
			}
		}
	}
	return &timingExecutor{ecd: ecd, end: end, names: names}
}

func (x *timingExecutor) mark(layer int, in, out time.Time) {
	x.end.kernel = true
	x.end.kernelName = x.names[layer]
	x.end.kernelIn, x.end.kernelOut = in, out
}

func (x *timingExecutor) ExecConv(layer int, conv *core.Conv2D, ev *bfv.Evaluator, ct *bfv.Ciphertext, slots int) ([]*bfv.Ciphertext, core.OpCounts, error) {
	in := time.Now()
	outs, ops, err := conv.Apply(ev, x.ecd, ct, slots)
	x.mark(layer, in, time.Now())
	return outs, ops, err
}

func (x *timingExecutor) ExecFC(layer int, fc *core.FC, ev *bfv.Evaluator, ct *bfv.Ciphertext, slots int) (*bfv.Ciphertext, core.OpCounts, error) {
	in := time.Now()
	out, ops, err := fc.Apply(ev, x.ecd, ct, slots)
	x.mark(layer, in, time.Now())
	return out, ops, err
}
