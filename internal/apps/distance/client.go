package distance

import (
	"fmt"
	"math"

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
	enc *ckks.SymmetricEncryptor
	dec *ckks.Decryptor
	ctx *ckks.Context
	// keyFrame is the evaluation-key bundle, marshalled once: the client
	// keeps the bytes it sends, not the unpacked keys.
	keyFrame []byte
}

// NewClient generates key material for querying a server with the
// given geometry (published by the server out of band): a Galois key for
// each step the server's plans rotate by, and no other. The server
// multiplies no two ciphertexts, so the bundle has no relinearization key.
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
	var elements []uint64
	for _, s := range g.rotationSteps() {
		elements = append(elements, ctx.GaloisElementForRotation(s))
	}
	// CKKSKeyBundle's format carries a public key; the server never uses it.
	kb := &protocol.CKKSKeyBundle{
		PK:     kg.GenPublicKey(sk),
		Galois: kg.GenGaloisKeys(sk, elements),
	}
	return &Client{
		geometry: g,
		ctx:      ctx,
		enc:      ckks.NewSymmetricEncryptor(ctx, sk, seed),
		dec:      ckks.NewDecryptor(ctx, sk),
		keyFrame: protocol.MarshalCKKSKeyBundle(kb),
	}, nil
}

// Setup ships evaluation keys to the server.
func (c *Client) Setup(t protocol.Transport) error {
	return t.Send(c.keyFrame)
}

// Query computes squared distances from q to every server point: the
// request frame and the variant's uploads out, its downloads back
// (geometry.cost says how many of each — one and one for the two
// client-optimal packings, §5.4). Every upload is encrypted before the
// first frame leaves, so a query that fails on the client's side has
// either sent nothing or lost its transport.
//
// A reply value is ‖q‖² − d², which wraps silently past the variant's
// headroom (headroomBits), so a query whose ‖q‖² reaches it is refused
// before any frame leaves. The same bound holds for each squared distance
// d²; that is the caller's to keep, as the client cannot see the points.
func (c *Client) Query(q []float64, variant Variant, t protocol.Transport) ([]float64, core.Stats, error) {
	var stats core.Stats
	if len(q) != c.rawD {
		return nil, stats, fmt.Errorf("distance: query has %d dims, want %d", len(q), c.rawD)
	}
	cost, err := c.cost(variant)
	if err != nil {
		return nil, stats, err
	}
	var qq float64
	for _, x := range q {
		qq += x * x
	}
	if bits := variant.headroomBits(c.ctx.Params); !(qq < math.Ldexp(1, bits)) {
		return nil, stats, fmt.Errorf("distance: query's squared norm %g reaches the %v reply headroom 2^%d", qq, variant, bits)
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
		switch variant {
		case PointMajor, StackedPointMajor:
			for b := 0; b < perCt && g*perCt+b < c.m; b++ {
				out[g*perCt+b] = decoded[b*c.d]
			}
		case StackedDimMajor:
			// The client folds the real dimensions' blocks (§5.4).
			bm := nextPow2(c.m)
			for k := 0; k < c.rawD; k++ {
				for i := range out {
					out[i] += decoded[k*bm+i]
				}
			}
		default:
			copy(out, decoded[:c.m])
		}
	}
	// The server answered 2⟨p, q⟩ − ‖p‖² (Server.expandedSquare); the
	// client, which holds q, finishes ‖q − p‖² = ‖q‖² − that.
	for i := range out {
		out[i] = qq - out[i]
	}
	return out, stats, nil
}
