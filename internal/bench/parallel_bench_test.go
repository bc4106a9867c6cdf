package bench

import (
	"fmt"
	"runtime"
	"testing"

	"choco/internal/apps/distance"
	"choco/internal/bfv"
	"choco/internal/nn"
	"choco/internal/par"
	"choco/internal/protocol"
)

// BenchmarkParallelScaling measures the parallel execution layer's
// serial-vs-parallel speedup on the Table 3 presets: live LeNetSm
// inference at preset A and preset B (BFV; LeNetLg's second conv needs
// a 16384-slot row, past every preset's single-ciphertext packing, so
// the largest live-runnable zoo network stands in), and the collapsed
// point-major distance kernel at the CKKS production preset (C).
// Serial pins the pool to one worker; parallel uses the full
// GOMAXPROCS width — run with GOMAXPROCS=8 to reproduce the
// EXPERIMENTS.md table. Outputs are checked identical between the two
// modes before timing starts.
func BenchmarkParallelScaling(b *testing.B) {
	oldP := par.Parallelism()
	defer par.SetParallelism(oldP)

	for _, preset := range []struct {
		name   string
		params bfv.Parameters
	}{
		{"presetA-LeNetSm", bfv.PresetA()},
		{"presetB-LeNetSm", bfv.PresetB()},
	} {
		net := nn.LeNetSmall()
		net.Params = preset.params
		var seed [32]byte
		seed[0] = 7
		model := nn.SynthesizeWeights(net, 4, seed)
		runner, err := nn.NewRunner(model, [32]byte{42})
		if err != nil {
			b.Fatal(err)
		}
		img := nn.SynthesizeImage(net, 4, [32]byte{1})
		infer := func() []int64 {
			clientEnd, serverEnd := protocol.NewPipe()
			logits, _, err := runner.Infer(img, clientEnd, serverEnd)
			if err != nil {
				b.Fatal(err)
			}
			return logits
		}

		// Determinism gate: the parallel schedule must reproduce the
		// serial logits exactly (ciphertext-level identity is pinned by
		// TestParallelPipelineDeterminism in internal/core).
		par.SetParallelism(1)
		serial := infer()
		par.SetParallelism(runtime.GOMAXPROCS(0))
		parallel := infer()
		for i := range serial {
			if serial[i] != parallel[i] {
				b.Fatalf("%s: parallel logits diverge from serial at %d", preset.name, i)
			}
		}

		for _, mode := range []struct {
			name  string
			width int
		}{
			{"serial", 1},
			{"parallel", runtime.GOMAXPROCS(0)},
		} {
			b.Run(fmt.Sprintf("%s/%s", preset.name, mode.name), func(b *testing.B) {
				par.SetParallelism(mode.width)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					infer()
				}
			})
		}
	}

	// Preset C: collapsed point-major distance at the CKKS production
	// parameters (§5.4's client-optimal packing; server-heavy).
	points := make([][]float64, 32)
	for i := range points {
		points[i] = make([]float64, 16)
		for d := range points[i] {
			points[i][d] = float64((i*31+d*17)%23) / 23
		}
	}
	server, err := distance.NewServer(distance.PresetDistance(), points)
	if err != nil {
		b.Fatal(err)
	}
	client, err := distance.NewClient(distance.PresetDistance(), 32, 16, [32]byte{3})
	if err != nil {
		b.Fatal(err)
	}
	clientEnd, serverEnd := protocol.NewPipe()
	served := make(chan error, 1)
	go func() { served <- server.Serve(serverEnd) }() // a failure reaches the client as a session error
	defer func() {
		clientEnd.Close() // ends the session; then wait for the server half
		<-served
	}()
	if err := client.Setup(clientEnd); err != nil {
		b.Fatal(err)
	}
	q := make([]float64, 16)
	for d := range q {
		q[d] = float64(d) / 16
	}
	dist := func() {
		if _, _, err := client.Query(q, distance.CollapsedPointMajor, clientEnd); err != nil {
			b.Fatal(err)
		}
	}
	for _, mode := range []struct {
		name  string
		width int
	}{
		{"serial", 1},
		{"parallel", runtime.GOMAXPROCS(0)},
	} {
		b.Run(fmt.Sprintf("presetC-distance/%s", mode.name), func(b *testing.B) {
			par.SetParallelism(mode.width)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dist()
			}
		})
	}
}
