package distance

import (
	"fmt"

	"choco/internal/ckks"
	"choco/internal/core"
	"choco/internal/protocol"
)

// Client is the trusted side: it holds the secret key and its query, and
// ships the server only evaluation keys. Holding the key, it uploads
// seeded symmetric ciphertexts — c0 and the 32-byte seed c1 expands from,
// half a public-key frame — as nn's client does.
type Client struct {
	geometry
	enc    *ckks.SymmetricEncryptor
	dec    *ckks.Decryptor
	ctx    *ckks.Context
	bundle *protocol.CKKSKeyBundle
}

// NewClient generates key material for querying a server with the
// given geometry (published by the server out of band): exactly the
// rotation keys the five variants need.
func NewClient(params ckks.Parameters, m, rawD int, seed [32]byte) (*Client, error) {
	ctx, err := ckks.NewContext(params)
	if err != nil {
		return nil, err
	}
	g, err := newGeometry(ctx.Params.Slots(), m, rawD)
	if err != nil {
		return nil, err
	}
	kg := ckks.NewKeyGenerator(ctx, seed)
	sk := kg.GenSecretKey()
	// CKKSKeyBundle's format carries a public key; the server never uses it.
	pk := kg.GenPublicKey(sk)
	relin := kg.GenRelinearizationKey(sk)
	galois := kg.GenRotationKeys(sk, g.rotationSteps()...)
	return &Client{
		geometry: g,
		ctx:      ctx,
		enc:      ckks.NewSymmetricEncryptor(ctx, sk, seed),
		dec:      ckks.NewDecryptor(ctx, sk),
		bundle:   &protocol.CKKSKeyBundle{PK: pk, Relin: relin, Galois: galois},
	}, nil
}

// Setup ships evaluation keys to the server.
func (c *Client) Setup(t protocol.Transport) error {
	return t.Send(protocol.MarshalCKKSKeyBundle(c.bundle))
}

// Query computes squared distances from q to every server point: the
// request frame and the variant's uploads out, its downloads back
// (geometry.cost says how many of each — one and one for the two
// client-optimal packings, §5.4). Every upload is encrypted before the
// first frame leaves, so a query that fails on the client's side has
// either sent nothing or lost its transport.
func (c *Client) Query(q []float64, variant Variant, t protocol.Transport) ([]float64, core.Stats, error) {
	var stats core.Stats
	if len(q) != c.rawD {
		return nil, stats, fmt.Errorf("distance: query has %d dims, want %d", len(q), c.rawD)
	}
	cost, err := c.cost(variant)
	if err != nil {
		return nil, stats, err
	}
	uploads := make([][]byte, cost.UpCts)
	for j := range uploads {
		sct, err := c.enc.EncryptFloatsSeeded(c.layout(variant, j, func(int) []float64 { return q }))
		if err != nil {
			return nil, stats, err
		}
		stats.Encryptions++
		uploads[j] = protocol.MarshalSeededCKKS(sct)
	}
	if err := t.Send(requestFrame(variant)); err != nil {
		return nil, stats, err
	}
	// TODO(benchmark): this leaves out the request frame's own 4-byte
	// length prefix, so UpBytes undercounts the wire by 4 B per query.
	// benchmark/ checks the count with a fixed +4 and cannot change in a
	// PR that claims a gain; fix both together in a benchmark-only PR.
	stats.UpBytes += 4 // the request frame, + 4 per ciphertext frame below
	for _, data := range uploads {
		if err := t.Send(data); err != nil {
			return nil, stats, err
		}
		stats.UpCiphertexts++
		stats.UpBytes += int64(len(data)) + 4
	}

	out := make([]float64, c.m)
	perCt := c.perCt(variant)
	level := variant.replyLevel(c.ctx.Params.MaxLevel())
	for g := 0; g < cost.DownCts; g++ {
		raw, err := t.Recv()
		if err != nil {
			return nil, stats, err
		}
		if msg, ok := protocol.ParseSessionError(raw); ok {
			return nil, stats, fmt.Errorf("distance: the server failed the session: %s", msg)
		}
		stats.DownCiphertexts++
		stats.DownBytes += int64(len(raw)) + 4
		res, err := protocol.UnmarshalCKKS(c.ctx, raw)
		if err == nil && res.Level != level {
			err = fmt.Errorf("distance: %v reply %d arrived at level %d, the variant's replies leave at level %d", variant, g, res.Level, level)
		}
		if err != nil {
			return nil, stats, err
		}
		decoded := c.dec.DecryptFloats(res)
		stats.Decryptions++
		if variant.dense() {
			copy(out, decoded[:c.m])
			continue
		}
		for b := 0; b < perCt && g*perCt+b < c.m; b++ {
			out[g*perCt+b] = decoded[b*c.d]
		}
	}
	return out, stats, nil
}
