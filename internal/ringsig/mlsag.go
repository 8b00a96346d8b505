package ringsig

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// This file implements an MLSAG-style multilayer linkable ring signature:
// one signature proving, for a matrix of public keys with rows = ring
// positions and columns = transaction inputs, that the signer owns every
// key in one (secret) row — with one key image per column for double-spend
// detection. This is the construction multi-input transactions use in
// production systems; the single-input Sign/Verify above is the special
// case of a one-column matrix.

// MultiSignature is an MLSAG signature over an n×m key matrix.
type MultiSignature struct {
	C0     *big.Int
	S      [][]*big.Int // S[i][j]: response for ring position i, input j
	Images []Point      // one key image per input column
}

// Errors specific to the multilayer scheme.
var (
	ErrBadMatrix    = errors.New("ringsig: key matrix rows must be non-empty and uniform")
	ErrBadKeyCount  = errors.New("ringsig: need one private key per input column")
	ErrKeyMismatch  = errors.New("ringsig: private keys do not match the signer row")
	ErrInvalidMulti = errors.New("ringsig: invalid multilayer signature")
)

// MultiSign signs msg proving ownership of every key in row signerIdx of
// the matrix. matrix[i][j] is the j-th input's candidate key at ring
// position i; keys[j] must be the private key of matrix[signerIdx][j].
func MultiSign(rng io.Reader, keys []*PrivateKey, matrix [][]Point, signerIdx int, msg []byte) (*MultiSignature, error) {
	n := len(matrix)
	if n < 2 {
		return nil, ErrSmallRing
	}
	m := len(matrix[0])
	if m == 0 {
		return nil, ErrBadMatrix
	}
	for _, row := range matrix {
		if len(row) != m {
			return nil, ErrBadMatrix
		}
		for _, p := range row {
			if p.IsZero() || !Curve.IsOnCurve(p.X, p.Y) {
				return nil, ErrBadRingKeys
			}
		}
	}
	if len(keys) != m {
		return nil, ErrBadKeyCount
	}
	if signerIdx < 0 || signerIdx >= n {
		return nil, ErrNotInRing
	}
	for j, k := range keys {
		if !matrix[signerIdx][j].Equal(k.Public) {
			return nil, ErrKeyMismatch
		}
	}
	order := Curve.Params().N

	images := make([]Point, m)
	for j, k := range keys {
		images[j] = k.KeyImage()
	}

	alphas := make([]*big.Int, m)
	s := make([][]*big.Int, n)
	for i := range s {
		s[i] = make([]*big.Int, m)
	}
	c := make([]*big.Int, n)

	// Seed the challenge chain at the signer row with fresh nonces. The
	// nonces are secret, so these multiplications stay on the stock
	// constant-time ops with fixed-width scalar encoding.
	var seedParts []Point
	for j := range keys {
		a, err := randScalar(rng)
		if err != nil {
			return nil, err
		}
		alphas[j] = a
		var ab [32]byte
		a.FillBytes(ab[:])
		agx, agy := Curve.ScalarBaseMult(ab[:])
		hp := hashToPoint(matrix[signerIdx][j])
		ahx, ahy := Curve.ScalarMult(hp.X, hp.Y, ab[:])
		seedParts = append(seedParts, Point{agx, agy}, Point{ahx, ahy})
	}
	c[(signerIdx+1)%n] = multiChallenge(msg, seedParts)

	for off := 1; off < n; off++ {
		i := (signerIdx + off) % n
		var parts []Point
		for j := 0; j < m; j++ {
			var err error
			s[i][j], err = randResponse(rng)
			if err != nil {
				return nil, err
			}
			l, r := layerPoints(matrix[i][j], images[j], s[i][j], c[i])
			parts = append(parts, l, r)
		}
		c[(i+1)%n] = multiChallenge(msg, parts)
	}

	// Close every layer: s_π,j = α_j − c_π·x_j.
	for j, k := range keys {
		sj := new(big.Int).Mul(c[signerIdx], k.D)
		sj.Sub(alphas[j], sj)
		sj.Mod(sj, order)
		s[signerIdx][j] = sj
	}
	return &MultiSignature{C0: c[0], S: s, Images: images}, nil
}

// MultiVerify checks a multilayer signature against the key matrix.
func MultiVerify(sig *MultiSignature, matrix [][]Point, msg []byte) error {
	if sig == nil || sig.C0 == nil {
		return ErrInvalidMulti
	}
	n := len(matrix)
	if n < 2 || len(sig.S) != n {
		return ErrInvalidMulti
	}
	m := len(matrix[0])
	if m == 0 || len(sig.Images) != m {
		return ErrInvalidMulti
	}
	order := Curve.Params().N
	// An out-of-range C0 can never equal the reduced final challenge, so
	// rejecting it up front changes no decision and lets the kernel chain
	// assume fixed-width 32-byte challenge operands.
	if sig.C0.Sign() < 0 || sig.C0.Cmp(order) >= 0 {
		return ErrInvalidMulti
	}
	for _, img := range sig.Images {
		if img.IsZero() || !Curve.IsOnCurve(img.X, img.Y) {
			return ErrInvalidMulti
		}
	}
	for i, row := range matrix {
		if len(row) != m || len(sig.S[i]) != m {
			return ErrInvalidMulti
		}
		for j, p := range row {
			if p.IsZero() || !Curve.IsOnCurve(p.X, p.Y) {
				return ErrBadRingKeys
			}
			sv := sig.S[i][j]
			if sv == nil || sv.Sign() < 0 || sv.Cmp(order) >= 0 {
				return ErrInvalidMulti
			}
		}
	}
	c := new(big.Int).Set(sig.C0)
	for i := 0; i < n; i++ {
		var parts []Point
		for j := 0; j < m; j++ {
			l, r := layerPoints(matrix[i][j], sig.Images[j], sig.S[i][j], c)
			parts = append(parts, l, r)
		}
		c = multiChallenge(msg, parts)
	}
	if c.Cmp(sig.C0) != 0 {
		return ErrInvalidMulti
	}
	return nil
}

// LinkedMulti reports whether two multilayer signatures share any key image
// — i.e. whether any input is double-spent across them.
func LinkedMulti(a, b *MultiSignature) bool {
	if a == nil || b == nil {
		return false
	}
	for _, ia := range a.Images {
		for _, ib := range b.Images {
			if ia.Equal(ib) {
				return true
			}
		}
	}
	return false
}

// multiChallenge hashes a transcript of points into a scalar.
//
// The v2 transcript is length-unambiguous: v1 concatenated the raw message
// directly before the 65-byte point parts, so for a fixed total byte stream
// the (msg, parts) split was not unique — a message ending in a valid point
// encoding aliased against a transcript with one more column. v2 frames the
// message length and the part count, which pins the split for any m. The
// domain tag is bumped so old and new transcripts can never collide with
// each other; MLSAG signatures are created and verified by the same binary
// (no persisted vectors), so the bump has no wire impact.
func multiChallenge(msg []byte, parts []Point) *big.Int {
	h := sha256.New()
	var frame [16]byte
	binary.LittleEndian.PutUint64(frame[:8], uint64(len(msg)))
	binary.LittleEndian.PutUint64(frame[8:], uint64(len(parts)))
	hashWrite(h, []byte("tokenmagic/mlsag/v2"), frame[:], msg)
	for _, p := range parts {
		hashWrite(h, p.Bytes())
	}
	d := new(big.Int).SetBytes(h.Sum(nil))
	return d.Mod(d, Curve.Params().N)
}

// String renders a short digest for logs.
func (s *MultiSignature) String() string {
	if s == nil {
		return "MultiSignature(nil)"
	}
	return fmt.Sprintf("MultiSignature(rows=%d, inputs=%d)", len(s.S), len(s.Images))
}
