package ringsig

// Double-scalar multiplication kernels for the verification challenge
// chain. Each ring member costs two point pairs:
//
//	L = s·G  + c·P   (fixed base + variable point)
//	R = s·Hp + c·I   (two variable points)
//
// mulPairBase and mulPair are the only multiplication entry points the
// verify path uses. L goes through the P-256 curve's CombinedMult, which
// crypto/elliptic implements as the nistec ScalarBaseMult + ScalarMult +
// Add in projective coordinates: the same three operations the stock path
// runs, minus one affine round trip. R is two ScalarMult and an Add on the
// stock API.
//
// Scalars are encoded fixed-width via FillBytes: big.Int.Bytes() drops
// leading zero bytes, and while the stock API tolerates short scalars, the
// fixed 32-byte form is what the scheme specifies and what keeps encode
// length independent of scalar value. The kernels are verify-only: both
// carry //tmlint:vartime, so the cttime analyzer rejects any secret that
// could reach them (see DESIGN.md "Verification kernels").

import "math/big"

// combinedMulter is the double-scalar method crypto/elliptic's P-256 curve
// exposes (the upgrade interface crypto/ecdsa uses). The generic nistec
// curve type behind every P256() value implements it on the toolchains
// go.mod admits, so the assertion at init cannot fail.
type combinedMulter interface {
	CombinedMult(bigX, bigY *big.Int, baseScalar, scalar []byte) (x, y *big.Int)
}

var p256Combined = Curve.(combinedMulter)

// Cached curve constants.
var (
	curveP = Curve.Params().P
	curveN = Curve.Params().N
	curveB = Curve.Params().B
)

// mulPairBase returns s·G + c·P for public verification scalars.
//
//tmlint:hotpath
//tmlint:vartime
func mulPairBase(s, c *big.Int, pub Point) Point {
	var sb, cb [32]byte
	s.FillBytes(sb[:])
	c.FillBytes(cb[:])
	x, y := p256Combined.CombinedMult(pub.X, pub.Y, sb[:], cb[:])
	return Point{X: x, Y: y}
}

// mulPair returns a·Q + b·R for public verification scalars. Same contract
// as mulPairBase.
//
//tmlint:hotpath
//tmlint:vartime
func mulPair(a *big.Int, q Point, b *big.Int, r Point) Point {
	var ab, bb [32]byte
	a.FillBytes(ab[:])
	b.FillBytes(bb[:])
	qx, qy := Curve.ScalarMult(q.X, q.Y, ab[:])
	rx, ry := Curve.ScalarMult(r.X, r.Y, bb[:])
	x, y := Curve.Add(qx, qy, rx, ry)
	return Point{X: x, Y: y}
}

// ringStep computes c_{i+1} = H(msg, s·G + c·P, s·Hp(P) + c·I) through the
// kernels, resolving Hp(P) via the memo when one is supplied.
func ringStep(msg []byte, pub, image Point, s, c *big.Int, hp *HpCache) *big.Int {
	l := mulPairBase(s, c, pub)
	r := mulPair(s, hp.hashPoint(pub), c, image)
	return challenge(msg, l, r)
}

// small returns a cached *big.Int for v ∈ [0, 16).
func small(v int64) *big.Int { return smallInts[v] }

var smallInts = func() [16]*big.Int {
	var s [16]*big.Int
	for i := range s {
		s[i] = big.NewInt(int64(i))
	}
	return s
}()

// reduceScalar returns k mod N without copying when k is already in range —
// the verification path always is; the reduction only triggers on tampered
// or oversized inputs reaching the stock path.
func reduceScalar(k *big.Int) *big.Int {
	if k.Sign() >= 0 && k.Cmp(curveN) < 0 {
		return k
	}
	return new(big.Int).Mod(k, curveN)
}
