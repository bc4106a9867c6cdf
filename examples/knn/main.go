// Encrypted K-Nearest-Neighbors (§5.1): the server aggregates a
// labeled point set (from many clients — data a single client could
// never hold); a client classifies its private query with a single
// encrypted interaction using the client-optimal collapsed
// point-major packing (Fig 9 / §5.4).
package main

import (
	"fmt"
	"log"

	"choco/internal/apps/distance"
	"choco/internal/protocol"
	"choco/internal/sampling"
)

func main() {
	// Server data: two Gaussian blobs with labels 0 and 1.
	src := sampling.NewSource([32]byte{9}, "knn-demo")
	var points [][]float64
	var labels []int
	for i := 0; i < 32; i++ {
		cx, cy, label := 2.0, 2.0, 0
		if i%2 == 1 {
			cx, cy, label = -2.0, -2.0, 1
		}
		points = append(points, []float64{cx + src.NormFloat64()*0.5, cy + src.NormFloat64()*0.5})
		labels = append(labels, label)
	}

	// The two halves of the deployment, joined in this process by a pipe:
	// the server holds the points and, after Setup, the client's
	// evaluation keys; the client holds the secret key and the labels.
	server, err := distance.NewServer(distance.PresetDistance(), points)
	if err != nil {
		log.Fatal(err)
	}
	m, _, dims := server.Geometry()
	client, err := distance.NewClient(distance.PresetDistance(), m, dims, [32]byte{10})
	if err != nil {
		log.Fatal(err)
	}
	knn, err := distance.NewKNN(client, labels)
	if err != nil {
		log.Fatal(err)
	}
	clientEnd, serverEnd := protocol.NewPipe()
	served := make(chan error, 1)
	go func() { served <- server.Serve(serverEnd) }() // a failure reaches the client as a session error
	defer func() {
		clientEnd.Close() // ends the session; then wait for the server half
		<-served
	}()
	if err := client.Setup(clientEnd); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server holds %d labeled points (CKKS, N=%d)\n", m, distance.PresetDistance().N())

	queries := [][]float64{{1.8, 2.3}, {-1.5, -2.2}, {0.4, 0.3}}
	for _, q := range queries {
		label, stats, err := knn.Classify(q, 5, distance.CollapsedPointMajor, clientEnd)
		if err != nil {
			log.Fatal(err)
		}
		plain := distance.PlainKNN(points, labels, q, 5)
		status := "matches cleartext"
		if label != plain {
			status = fmt.Sprintf("MISMATCH (plain %d)", plain)
		}
		fmt.Printf("query %v → class %d (%s); 1 round trip: %.1f KB up, %.1f KB down\n",
			q, label, status, float64(stats.UpBytes)/1024, float64(stats.DownBytes)/1024)
	}
	fmt.Println("the collapsed packing downloads a single dense ciphertext —")
	fmt.Println("extra server masking work traded for minimal client cost (§5.4).")
}
