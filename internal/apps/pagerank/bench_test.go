package pagerank

import (
	"testing"

	"choco/internal/protocol"
)

func BenchmarkBFVIterationSet(b *testing.B) {
	g, err := Synthesize(16, 3, 0.85, [32]byte{1})
	if err != nil {
		b.Fatal(err)
	}
	runner, err := NewBFVRunner(g, testBFVParams, 8, 8, [32]byte{2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clientEnd, serverEnd := protocol.NewPipe()
		if _, _, err := runner.Run(2, 2, clientEnd, serverEnd); err != nil {
			b.Fatal(err)
		}
		clientEnd.Close()
	}
}

func BenchmarkCKKSIterationSet(b *testing.B) {
	g, err := Synthesize(16, 3, 0.85, [32]byte{1})
	if err != nil {
		b.Fatal(err)
	}
	runner, err := NewCKKSRunner(g, testCKKSParams, [32]byte{3})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clientEnd, serverEnd := protocol.NewPipe()
		if _, _, err := runner.Run(2, 2, clientEnd, serverEnd); err != nil {
			b.Fatal(err)
		}
		clientEnd.Close()
	}
}

func BenchmarkPlainRank(b *testing.B) {
	g, err := Synthesize(256, 6, 0.85, [32]byte{4})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.PlainRank(10)
	}
}
