package ringsig

// Differential tests: the kernel layer against the stock-curve
// implementation. The contract is exact equality — byte-identical
// signatures from the same rng stream, identical accept/reject decisions
// (including error identity) on valid and tampered inputs, bit-identical
// point results from every multiplication kernel.

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math/big"
	"testing"
)

// detReader is a deterministic byte stream (sha256 counter mode) so two
// Sign calls can consume identical entropy.
type detReader struct {
	seed [32]byte
	ctr  uint64
	buf  []byte
}

func newDetReader(label string) *detReader {
	return &detReader{seed: sha256.Sum256([]byte(label))}
}

func (r *detReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if len(r.buf) == 0 {
			var block [40]byte
			copy(block[:32], r.seed[:])
			binary.BigEndian.PutUint64(block[32:], r.ctr)
			r.ctr++
			sum := sha256.Sum256(block[:])
			r.buf = sum[:]
		}
		c := copy(p[n:], r.buf)
		r.buf = r.buf[c:]
		n += c
	}
	return n, nil
}

// kernelScalars is the scalar edge-case set every kernel test sweeps in
// addition to random draws.
func kernelScalars(t testing.TB) []*big.Int {
	t.Helper()
	n := Curve.Params().N
	edge := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(2),
		big.NewInt(15),
		big.NewInt(1 << 30),
		new(big.Int).Sub(n, big.NewInt(1)),
		new(big.Int).Rsh(n, 1),
		new(big.Int).Lsh(big.NewInt(1), 200), // 56 leading zero bytes exercise FillBytes widths
	}
	for i := 0; i < 6; i++ {
		k, err := rand.Int(rand.Reader, n)
		if err != nil {
			t.Fatal(err)
		}
		edge = append(edge, k)
	}
	return edge
}

func stockPairBase(s, c *big.Int, pub Point) Point {
	sgx, sgy := Curve.ScalarBaseMult(s.Bytes())
	cpx, cpy := Curve.ScalarMult(pub.X, pub.Y, c.Bytes())
	x, y := Curve.Add(sgx, sgy, cpx, cpy)
	return Point{x, y}
}

func stockPair(a *big.Int, q Point, b *big.Int, r Point) Point {
	ax, ay := Curve.ScalarMult(q.X, q.Y, a.Bytes())
	bx, by := Curve.ScalarMult(r.X, r.Y, b.Bytes())
	x, y := Curve.Add(ax, ay, bx, by)
	return Point{x, y}
}

func TestKernelPairsMatchStock(t *testing.T) {
	_, ring := genRing(t, 3)
	p, q := ring[0], ring[1]
	for _, s := range kernelScalars(t) {
		for _, c := range kernelScalars(t) {
			if got, want := mulPairBase(s, c, p), stockPairBase(s, c, p); !got.Equal(want) {
				t.Fatalf("mulPairBase(%v, %v) = %v, want %v", s, c, got, want)
			}
			if got, want := mulPair(s, p, c, q), stockPair(s, p, c, q); !got.Equal(want) {
				t.Fatalf("mulPair(%v, %v) = %v, want %v", s, c, got, want)
			}
		}
	}
}

func TestHashToPointMatchesReference(t *testing.T) {
	for i := 0; i < 64; i++ {
		k, err := GenerateKey(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		fast := hashToPoint(k.Public)
		ref := stockHashToPoint(k.Public)
		if !fast.Equal(ref) {
			t.Fatalf("hashToPoint(%v) = %v, reference = %v", k.Public, fast, ref)
		}
		if fast.Y.Bit(0) != 0 {
			t.Fatalf("hashToPoint must pick the even root, got odd y %v", fast.Y)
		}
		if !Curve.IsOnCurve(fast.X, fast.Y) {
			t.Fatal("hashToPoint result off curve")
		}
	}
}

// TestSignByteIdenticalToStock: same keys, same entropy stream — the
// kernel-path Sign and the stock-path StockSign must emit byte-identical
// signatures.
func TestSignByteIdenticalToStock(t *testing.T) {
	keyRng := newDetReader("keys")
	keys := make([]*PrivateKey, 8)
	ring := make([]Point, 8)
	for i := range keys {
		k, err := GenerateKey(keyRng)
		if err != nil {
			t.Fatal(err)
		}
		keys[i], ring[i] = k, k.Public
	}
	msg := []byte("differential signing transcript")
	for idx := range keys {
		a, err := Sign(newDetReader("nonces"), keys[idx], ring, idx, msg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := StockSign(newDetReader("nonces"), keys[idx], ring, idx, msg)
		if err != nil {
			t.Fatal(err)
		}
		if a.C0.Cmp(b.C0) != 0 {
			t.Fatalf("idx %d: C0 differs: %v vs %v", idx, a.C0, b.C0)
		}
		if !a.Image.Equal(b.Image) {
			t.Fatalf("idx %d: key image differs", idx)
		}
		for i := range a.S {
			if a.S[i].Cmp(b.S[i]) != 0 {
				t.Fatalf("idx %d: s[%d] differs: %v vs %v", idx, i, a.S[i], b.S[i])
			}
		}
		if err := StockVerify(a, ring, msg); err != nil {
			t.Fatalf("stock verify of kernel signature: %v", err)
		}
		if err := Verify(b, ring, msg); err != nil {
			t.Fatalf("kernel verify of stock signature: %v", err)
		}
	}
}

// mutateSig returns tampered variants of a valid signature (with fresh
// backing big.Ints so the original stays intact), each of which both paths
// must reject identically.
func mutateSig(sig *Signature, ring []Point) []*Signature {
	clone := func() *Signature {
		c := &Signature{C0: new(big.Int).Set(sig.C0), Image: sig.Image, S: make([]*big.Int, len(sig.S))}
		for i, s := range sig.S {
			c.S[i] = new(big.Int).Set(s)
		}
		return c
	}
	n := Curve.Params().N
	bumpC0 := clone()
	bumpC0.C0.Add(bumpC0.C0, big.NewInt(1))
	bumpC0.C0.Mod(bumpC0.C0, n)
	bumpS := clone()
	bumpS.S[1].Add(bumpS.S[1], big.NewInt(1))
	bumpS.S[1].Mod(bumpS.S[1], n)
	zeroS := clone()
	zeroS.S[0].SetInt64(0)
	hugeC0 := clone()
	hugeC0.C0.Lsh(big.NewInt(1), 300)
	outS := clone()
	outS.S[2].Set(n)
	badImage := clone()
	badImage.Image = hashToPoint(ring[0]) // on-curve but wrong image
	return []*Signature{bumpC0, bumpS, zeroS, hugeC0, outS, badImage}
}

func TestVerifyDecisionsMatchStock(t *testing.T) {
	keys, ring := genRing(t, 6)
	msg := []byte("decision parity")
	sig, err := Sign(rand.Reader, keys[3], ring, 3, msg)
	if err != nil {
		t.Fatal(err)
	}
	checkParity := func(s *Signature, r []Point, m []byte) {
		t.Helper()
		kerr := Verify(s, r, m)
		serr := StockVerify(s, r, m)
		if (kerr == nil) != (serr == nil) {
			t.Fatalf("decision mismatch: kernel=%v stock=%v", kerr, serr)
		}
		if kerr != nil && !errors.Is(kerr, serr) && !errors.Is(serr, kerr) {
			t.Fatalf("error identity mismatch: kernel=%v stock=%v", kerr, serr)
		}
	}
	checkParity(sig, ring, msg)
	checkParity(sig, ring, []byte("wrong message"))
	for _, bad := range mutateSig(sig, ring) {
		checkParity(bad, ring, msg)
	}
	// Off-curve ring member.
	badRing := append([]Point{}, ring...)
	badRing[4] = Point{X: big.NewInt(7), Y: big.NewInt(9)}
	checkParity(sig, badRing, msg)
}

func TestVerifyBatchNegatives(t *testing.T) {
	keys, ring := genRing(t, 5)
	msg := func(i int) []byte { return []byte{byte(i), 'm'} }
	reqs := make([]VerifyRequest, 8)
	sigs := make([]*Signature, 8)
	for i := range reqs {
		sig, err := Sign(rand.Reader, keys[i%5], ring, i%5, msg(i))
		if err != nil {
			t.Fatal(err)
		}
		sigs[i] = sig
		reqs[i] = VerifyRequest{Sig: sig, Ring: ring, Msg: msg(i)}
	}
	e := &Engine{Workers: 2}

	t.Run("all valid", func(t *testing.T) {
		res := e.VerifyBatch(context.Background(), reqs)
		if !res.OK() || res.FirstFailure != -1 {
			t.Fatalf("valid batch rejected: %+v", res)
		}
	})

	t.Run("tampered s[i]", func(t *testing.T) {
		bad := append([]VerifyRequest{}, reqs...)
		tampered := mutateSig(sigs[3], ring)[1] // bumped s[1]
		bad[3] = VerifyRequest{Sig: tampered, Ring: ring, Msg: msg(3)}
		res := e.VerifyBatch(context.Background(), bad)
		if res.FirstFailure != 3 {
			t.Fatalf("FirstFailure = %d, want 3", res.FirstFailure)
		}
		if !errors.Is(res.Errs[3], ErrInvalid) {
			t.Fatalf("err = %v, want ErrInvalid", res.Errs[3])
		}
		if res.Rechecked == 0 {
			t.Fatal("kernel reject must be confirmed on the stock path")
		}
		for i, err := range res.Errs {
			if i != 3 && err != nil {
				t.Fatalf("index %d wrongly rejected: %v", i, err)
			}
		}
	})

	t.Run("swapped key images", func(t *testing.T) {
		bad := append([]VerifyRequest{}, reqs...)
		a := &Signature{C0: sigs[1].C0, S: sigs[1].S, Image: sigs[2].Image}
		b := &Signature{C0: sigs[2].C0, S: sigs[2].S, Image: sigs[1].Image}
		bad[1] = VerifyRequest{Sig: a, Ring: ring, Msg: msg(1)}
		bad[2] = VerifyRequest{Sig: b, Ring: ring, Msg: msg(2)}
		res := e.VerifyBatch(context.Background(), bad)
		if res.FirstFailure != 1 {
			t.Fatalf("FirstFailure = %d, want 1", res.FirstFailure)
		}
		if res.Errs[1] == nil || res.Errs[2] == nil {
			t.Fatalf("swapped images must fail both: %v, %v", res.Errs[1], res.Errs[2])
		}
	})

	t.Run("off-curve member mid-batch", func(t *testing.T) {
		bad := append([]VerifyRequest{}, reqs...)
		badRing := append([]Point{}, ring...)
		badRing[2] = Point{X: big.NewInt(3), Y: big.NewInt(5)}
		bad[4] = VerifyRequest{Sig: sigs[4], Ring: badRing, Msg: msg(4)}
		res := e.VerifyBatch(context.Background(), bad)
		if res.FirstFailure != 4 {
			t.Fatalf("FirstFailure = %d, want 4", res.FirstFailure)
		}
		if !errors.Is(res.Errs[4], ErrBadRingKeys) {
			t.Fatalf("err = %v, want ErrBadRingKeys", res.Errs[4])
		}
	})

	t.Run("worker counts agree", func(t *testing.T) {
		bad := append([]VerifyRequest{}, reqs...)
		bad[5] = VerifyRequest{Sig: mutateSig(sigs[5], ring)[0], Ring: ring, Msg: msg(5)}
		// The single-worker run is the baseline, so it must go first —
		// iterating a map here left base unset whenever another width drew
		// the first slot, indexing the nil Errs slice.
		var base BatchResult
		for _, w := range []int{1, 2, 4, 8} {
			res := (&Engine{Workers: w}).VerifyBatch(context.Background(), bad)
			if w == 1 {
				base = res
			}
			if res.FirstFailure != 5 {
				t.Fatalf("workers=%d: FirstFailure = %d, want 5", w, res.FirstFailure)
			}
			for i := range res.Errs {
				if (res.Errs[i] == nil) != (base.Errs[i] == nil) {
					t.Fatalf("workers=%d: decision for %d differs", w, i)
				}
			}
		}
	})

	t.Run("cancelled context", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		res := e.VerifyBatch(ctx, reqs)
		for i, err := range res.Errs {
			if err == nil {
				t.Fatalf("index %d decided despite cancelled ctx", i)
			}
		}
		if res.OK() {
			t.Fatal("cancelled batch cannot be OK")
		}
	})
}

func TestEngineCaches(t *testing.T) {
	keys, ring := genRing(t, 4)
	msg := []byte("cached")
	sig, err := Sign(rand.Reader, keys[0], ring, 0, msg)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Hp: NewHpCache(), Seen: NewSigCache(128), Workers: 1}
	e.Hp.Precompute(ring)
	if e.Hp.Len() != len(ring) {
		t.Fatalf("Precompute: Len = %d, want %d", e.Hp.Len(), len(ring))
	}
	reqs := []VerifyRequest{{Sig: sig, Ring: ring, Msg: msg}}
	if res := e.VerifyBatch(context.Background(), reqs); !res.OK() || res.CacheHits != 0 {
		t.Fatalf("first pass: %+v", res)
	}
	res := e.VerifyBatch(context.Background(), reqs)
	if !res.OK() || res.CacheHits != 1 {
		t.Fatalf("second pass must hit the transcript cache: %+v", res)
	}
	// A tampered variant of a cached signature must still be rejected.
	for _, bad := range mutateSig(sig, ring) {
		if err := e.Verify(bad, ring, msg); err == nil {
			t.Fatal("tampered signature accepted after caching the valid one")
		}
	}
	// Same transcript under a different message is a different key.
	if err := e.Verify(sig, ring, []byte("other")); err == nil {
		t.Fatal("cache must not leak across messages")
	}
}

func TestSigCacheRotation(t *testing.T) {
	c := NewSigCache(8)
	key := func(i int) [32]byte { return sha256.Sum256([]byte{byte(i)}) }
	for i := 0; i < 64; i++ {
		c.Record(key(i))
	}
	if c.Len() > 8 {
		t.Fatalf("cache exceeded bound: %d", c.Len())
	}
	if !c.Seen(key(63)) {
		t.Fatal("most recent entry must survive rotation")
	}
	if c.Seen(key(0)) {
		t.Fatal("oldest entry should have rotated out")
	}
	var nilCache *SigCache
	if nilCache.Seen(key(1)) {
		t.Fatal("nil cache never hits")
	}
	nilCache.Record(key(1)) // must not panic
}

func TestLayerPointsMatchStock(t *testing.T) {
	_, ring := genRing(t, 2)
	for _, s := range kernelScalars(t) {
		for _, c := range kernelScalars(t) {
			l1, r1 := layerPoints(ring[0], ring[1], s, c)
			l2, r2 := stockLayerPoints(ring[0], ring[1], s, c)
			if !l1.Equal(l2) || !r1.Equal(r2) {
				t.Fatalf("layerPoints(%v, %v) mismatch", s, c)
			}
		}
	}
}

// FuzzVerifyBatchEquivalence asserts VerifyBatch ≡ per-signature
// StockVerify on random valid/invalid mixes: the fuzzer controls which
// requests are tampered and how.
func FuzzVerifyBatchEquivalence(f *testing.F) {
	keyRng := newDetReader("fuzz-keys")
	keys := make([]*PrivateKey, 4)
	ring := make([]Point, 4)
	for i := range keys {
		k, err := GenerateKey(keyRng)
		if err != nil {
			f.Fatal(err)
		}
		keys[i], ring[i] = k, k.Public
	}
	f.Add(uint16(0x0000), uint8(2), int64(1))
	f.Add(uint16(0xffff), uint8(3), int64(2))
	f.Add(uint16(0x5a5a), uint8(1), int64(3))
	f.Fuzz(func(t *testing.T, tamperMask uint16, workers uint8, seed int64) {
		rng := newDetReader("fuzz-" + string(rune(seed)))
		const batch = 6
		reqs := make([]VerifyRequest, batch)
		for i := range reqs {
			idx := i % len(keys)
			msg := []byte{byte(i), byte(seed)}
			sig, err := Sign(rng, keys[idx], ring, idx, msg)
			if err != nil {
				t.Fatal(err)
			}
			if tamperMask&(1<<uint(i)) != 0 {
				muts := mutateSig(sig, ring)
				sig = muts[int(tamperMask>>8)%len(muts)]
			}
			reqs[i] = VerifyRequest{Sig: sig, Ring: ring, Msg: msg}
		}
		e := &Engine{Workers: int(workers%8) + 1, Seen: NewSigCache(64)}
		res := e.VerifyBatch(context.Background(), reqs)
		firstFail := -1
		for i, r := range reqs {
			want := StockVerify(r.Sig, r.Ring, r.Msg)
			if (res.Errs[i] == nil) != (want == nil) {
				t.Fatalf("index %d: batch=%v stock=%v", i, res.Errs[i], want)
			}
			if want != nil && firstFail == -1 {
				firstFail = i
			}
		}
		if res.FirstFailure != firstFail {
			t.Fatalf("FirstFailure = %d, want %d", res.FirstFailure, firstFail)
		}
		// Second pass over the same batch: cache hits must not change
		// decisions.
		res2 := e.VerifyBatch(context.Background(), reqs)
		for i := range reqs {
			if (res.Errs[i] == nil) != (res2.Errs[i] == nil) {
				t.Fatalf("index %d: cached pass flipped decision", i)
			}
		}
	})
}
