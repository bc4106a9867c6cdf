package distance

import "testing"

func benchVariant(b *testing.B, v Variant) {
	client, server, _ := testPair(b, 8, 4)
	conn := serving(b, client, server)
	q := []float64{0.5, -1.25, 1.0, 0.25}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := client.Query(q, v, conn); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistanceStackedDimMajor(b *testing.B)   { benchVariant(b, StackedDimMajor) }
func BenchmarkDistanceCollapsed(b *testing.B)         { benchVariant(b, CollapsedPointMajor) }
func BenchmarkDistanceStackedPointMajor(b *testing.B) { benchVariant(b, StackedPointMajor) }

func BenchmarkKNNClassify(b *testing.B) {
	client, server, _ := testPair(b, 8, 4)
	knn, err := NewKNN(client, []int{0, 1, 0, 1, 0, 1, 0, 1})
	if err != nil {
		b.Fatal(err)
	}
	conn := serving(b, client, server)
	q := []float64{0.1, 0.2, 0.3, 0.4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := knn.Classify(q, 3, CollapsedPointMajor, conn); err != nil {
			b.Fatal(err)
		}
	}
}
