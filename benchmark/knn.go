package main

import (
	"fmt"
	"math"
	"time"

	"choco/internal/apps/distance"
	"choco/internal/ckks"
	"choco/internal/core"
	"choco/internal/protocol"
)

// knnEnv is the generated input of knn-ckks-pipe: the server's point
// set, a pool of queries and their plaintext distances.
type knnEnv struct {
	seed    int64
	params  ckks.Parameters
	points  [][]float64
	queries [][]float64
	want    [][]float64
}

const (
	knnDims      = 16
	knnQueryPool = 8
	// knnTolerance is the distance suite's own bound on the CKKS error.
	knnTolerance = 0.05
)

func newKNNEnv(cfg runConfig) (any, error) {
	rng := seededRand(cfg.seed, "knn/inputs")
	m := cfg.geometry().knnPoints
	vec := func() []float64 {
		v := make([]float64, knnDims)
		for i := range v {
			v[i] = 2*rng.Float64() - 1
		}
		return v
	}
	env := &knnEnv{seed: cfg.seed, params: distance.PresetDistance()}
	for i := 0; i < m; i++ {
		env.points = append(env.points, vec())
	}
	for i := 0; i < knnQueryPool; i++ {
		q := vec()
		env.queries = append(env.queries, q)
		env.want = append(env.want, distance.PlainDistances(env.points, q))
	}
	return env, nil
}

// knnInstance joins a distance.Client and a distance.Server by a pipe.
type knnInstance struct {
	env       *knnEnv
	client    *distance.Client
	clientEnd *clientEnd
	serverEnd *serverEnd
	pipe      *protocol.Pipe
	done      chan error
	served    chan struct{} // see pipeInstance.served

	keygen time.Duration // distance.NewClient: context + all keys
}

func setupKNN(envAny any, nth int, rp runParams) (instance, error) {
	env := envAny.(*knnEnv)
	srv, err := distance.NewServer(env.params, env.points)
	if err != nil {
		return nil, err
	}
	m, _, rawD := srv.Geometry()
	t0 := time.Now()
	client, err := distance.NewClient(env.params, m, rawD, seedBytes(env.seed, "knn/keys"))
	if err != nil {
		return nil, err
	}
	done, served := make(chan error, 1), make(chan struct{}, 1)
	inst := &knnInstance{env: env, client: client, keygen: time.Since(t0), done: done, served: served}
	a, b := protocol.NewPipe()
	inst.pipe = a
	if err := client.Setup(a); err != nil {
		return nil, err
	}
	if err := srv.AcceptSetup(b); err != nil {
		return nil, err
	}
	inst.clientEnd = &clientEnd{Transport: a, tr: rp.tr}
	inst.serverEnd = &serverEnd{Transport: b, tr: rp.tr}
	go func() {
		for i := 0; ; i++ {
			inst.serverEnd.begin(i, rp.traced(i))
			_, err := srv.ServeOne(inst.serverEnd)
			inst.serverEnd.flush()
			if err != nil {
				done <- endOfSession(err)
				return
			}
			served <- struct{}{}
		}
	}()
	return inst, nil
}

func (k *knnInstance) callers() []caller { return []caller{k} }

func (k *knnInstance) close() error {
	k.pipe.Close()
	return <-k.done
}

func (k *knnInstance) do(i int, traced bool) (sample, error) {
	return k.query(i, traced, distance.StackedDimMajor)
}

func (k *knnInstance) query(i int, traced bool, variant distance.Variant) (sample, error) {
	n := i % len(k.env.queries)
	var got []float64
	var stats core.Stats
	s, err := k.clientEnd.measure(i, traced, func() (err error) {
		got, stats, err = k.client.Query(k.env.queries[n], variant, k.clientEnd)
		return err
	})
	if err != nil {
		return sample{}, fmt.Errorf("query %d: %w", i, err)
	}
	<-k.served
	want := k.env.want[n]
	for j := range want {
		if math.Abs(got[j]-want[j]) > knnTolerance {
			return s, mismatchf("query %d: distance %d = %.4f, distance.PlainDistances says %.4f", i, j, got[j], want[j])
		}
	}
	// Query counts the 4-byte request frame but not its length prefix.
	return s, checkBytes(stats, s.wireBytes, 4)
}

// verifyKNNBytes checks that both transport ends agree on the traffic.
func verifyKNNBytes(inst instance) error {
	k := inst.(*knnInstance)
	return checkEnds(k.clientEnd, k.serverEnd)
}
