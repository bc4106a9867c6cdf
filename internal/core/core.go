// Package core implements CHOCO's encrypted linear algebra — the
// server-side operators of the client-aided model. A convolution, and a
// fully-connected layer whose outputs fit one polynomial, is one
// plaintext product of a coefficient-packed BFV ciphertext per output
// tile (product.go); any other fully-connected layer runs over an input
// packed with rotational redundancy, so every alignment is a single
// cheap rotation (no masking multiplies, §3.3). Every operator reports
// exact operation counts for the client/server/communication cost
// accounting that drives the paper's evaluation figures.
package core

// OpCounts tallies the homomorphic operations an encrypted operator
// performs. They multiply into time and energy through the device and
// accelerator models.
type OpCounts struct {
	Rotations  int
	PlainMults int
	CtMults    int
	Adds       int
}

// Add accumulates counts.
func (o *OpCounts) Add(other OpCounts) {
	o.Rotations += other.Rotations
	o.PlainMults += other.PlainMults
	o.CtMults += other.CtMults
	o.Adds += other.Adds
}

// Stats captures one client-aided execution from the client's
// perspective: everything CHOCO optimizes.
type Stats struct {
	Encryptions     int
	Decryptions     int
	UpCiphertexts   int
	DownCiphertexts int
	UpBytes         int64
	DownBytes       int64
	Server          OpCounts
}

// TotalBytes returns the total communication volume.
func (s Stats) TotalBytes() int64 { return s.UpBytes + s.DownBytes }

// Merge accumulates another phase's stats.
func (s *Stats) Merge(o Stats) {
	s.Encryptions += o.Encryptions
	s.Decryptions += o.Decryptions
	s.UpCiphertexts += o.UpCiphertexts
	s.DownCiphertexts += o.DownCiphertexts
	s.UpBytes += o.UpBytes
	s.DownBytes += o.DownBytes
	s.Server.Add(o.Server)
}
