// Fixture for the secretflow taint analyzer: secret key material
// (SecretKey polys, KeyGenerator, seeds, fresh ternary and Gaussian
// samples) must never reach a wire or log sink, while the legitimate
// client paths — encrypting data, publishing evaluation keys — stay
// silent. This is the paper's core threat-model invariant made
// checkable.
package secretflow

import (
	"fmt"
	"log"

	"choco/internal/bfv"
	"choco/internal/protocol"
	"choco/internal/ring"
	"choco/internal/sampling"
)

// flatten is an opaque local helper: the analyzer cannot see that it
// serializes, so taint must flow arg -> result.
func flatten(p *ring.Poly) []byte {
	var out []byte
	for _, row := range p.Coeffs {
		for _, c := range row {
			out = append(out, byte(c))
		}
	}
	return out
}

// The invariant the paper is built on: a SecretKey poly must never be
// framed onto a protocol connection.
func leakSecretKeyPoly(t *protocol.Conn, sk *bfv.SecretKey) error {
	raw := flatten(sk.ValueQ)
	return t.Send(raw) // want `secret material reaches wire sink .*Conn\.Send`
}

// Same leak through a Transport interface method.
func leakViaTransport(t protocol.Transport, sk *bfv.SecretKey) error {
	raw := flatten(sk.ValueQ)
	return t.Send(raw) // want `secret material reaches wire sink .*Send`
}

// Secret material in an error string persists in logs and crosses
// process boundaries.
func leakInError(sk *bfv.SecretKey) error {
	return fmt.Errorf("decrypt failed for key %v", sk) // want `secret material reaches format sink fmt\.Errorf`
}

func leakInLog(kg *bfv.KeyGenerator) {
	log.Printf("keygen state: %+v", kg) // want `secret material reaches log sink log\.Printf`
}

// A key seed is as secret as the key it derives.
func leakSeed(t *protocol.Conn, seed [32]byte) error {
	return t.Send(seed[:]) // want `secret material reaches wire sink .*Conn\.Send`
}

// Freshly sampled ternary coefficients are the secret key in the
// making: the sampler's out-slice is tainted at the call.
func leakTernarySample(t *protocol.Conn, src *sampling.Source, n int) error {
	buf := make([]uint64, n)
	src.Ternary(buf, 12289)
	b := make([]byte, 0, n)
	for _, c := range buf {
		b = append(b, byte(c))
	}
	return t.Send(b) // want `secret material reaches wire sink .*Conn\.Send`
}

// An encryption's error is as secret as the key: with the ciphertext's
// c0 it gives a·s. The Gaussian sampler's out-slice is tainted too.
func leakGaussianError(src *sampling.Source, n int) {
	e := make([]int64, n)
	src.GaussianSigned(e, 3.2)
	log.Printf("error: %v", e) // want `secret material reaches log sink log\.Printf`
}

// Taint must survive a loop join: assigned on one iteration path, the
// leak below the loop is still on *some* path.
func leakThroughLoop(t *protocol.Conn, sk *bfv.SecretKey, retry bool) error {
	var payload []byte
	for i := 0; i < 3; i++ {
		if retry {
			payload = flatten(sk.ValueQ)
		}
	}
	return t.Send(payload) // want `secret material reaches wire sink .*Conn\.Send`
}

// --- Legitimate client paths: must stay silent. ---

// Publishing public and evaluation keys is the protocol working as
// designed: Gen* outputs (except GenSecretKey) are sanitized.
func publishEvalKeys(t *protocol.Conn, kg *bfv.KeyGenerator, sk *bfv.SecretKey) error {
	pk := kg.GenPublicKey(sk)
	rlk := kg.GenRelinearizationKey(sk)
	if err := t.Send(marshalPK(pk)); err != nil {
		return err
	}
	return t.Send(marshalRLK(rlk))
}

func marshalPK(pk *bfv.PublicKey) []byte            { return nil }
func marshalRLK(rlk *bfv.RelinearizationKey) []byte { return nil }

// Ciphertexts are semantically secure: Encrypt* output is sanitized,
// so the normal offload upload is silent.
func uploadCiphertext(t *protocol.Conn, enc *bfv.Encryptor, values []uint64) error {
	ct, err := enc.EncryptUints(values)
	if err != nil {
		return err
	}
	return t.Send(protocol.MarshalBFV(ct))
}

// Decryption output is the client's own application data, not key
// material; logging a decrypted result is fine.
func logResult(dec *bfv.Decryptor, ct *bfv.Ciphertext) {
	vals := dec.DecryptUints(ct)
	log.Printf("result: %v", vals)
}

// Overwriting a tainted variable with clean data clears the taint.
func reuseBufferAfterOverwrite(t *protocol.Conn, sk *bfv.SecretKey, ct *bfv.Ciphertext) error {
	buf := flatten(sk.ValueQ)
	_ = buf
	buf = protocol.MarshalBFV(ct)
	return t.Send(buf)
}
