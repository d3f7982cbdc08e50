package ipsec

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha1"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
	"testing/quick"

	"packetshader/internal/packet"
)

// ---------------------------------------------------------------------------
// Crypto helpers: the wire format of the keystream and the ICV
// ---------------------------------------------------------------------------

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCTRRFC3686Vectors: the SA's keystream is AES-128-CTR over the
// RFC 3686 counter block (nonce | IV | counter from 1), checked against
// the RFC's §6 test vectors #1-#3.
func TestCTRRFC3686Vectors(t *testing.T) {
	cases := []struct {
		key, nonce, iv, pt, ct string
	}{
		{"ae6852f8121067cc4bf7a5765577f39e", "00000030", "0000000000000000",
			"53696e676c6520626c6f636b206d7367",
			"e4095d4fb7a7b3792d6175a3261311b8"},
		{"7e24067817fae0d743d6ce1f32539163", "006cb6db", "c0543b59da48d90b",
			"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
			"5104a106168a72d9790d41ee8edad388eb2e1efc46da57c8fce630df9141be28"},
		{"7691be035e5020a8ac6e618529f9a0dc", "00e0017b", "27777f3f4a1786f0",
			"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20212223",
			"c1cf48a89f2ffdd9cf4652e9efdb72d74540a42bde6d7836d59a5ceaaef3105325b2072f"},
	}
	for i, c := range cases {
		nonce := binary.BigEndian.Uint32(mustHex(t, c.nonce))
		iv := binary.BigEndian.Uint64(mustHex(t, c.iv))
		sa := NewSA(1, nonce, mustHex(t, c.key), []byte("k"), 0, 0)
		buf := mustHex(t, c.pt)
		sa.ctr(buf, iv)
		if got := hex.EncodeToString(buf); got != c.ct {
			t.Errorf("vector #%d: ciphertext %s, want %s", i+1, got, c.ct)
		}
	}
}

func TestCTRMatchesStdlib(t *testing.T) {
	f := func(key [16]byte, nonce uint32, iv uint64, data []byte) bool {
		sa := NewSA(1, nonce, key[:], []byte("k"), 0, 0)
		got := bytes.Clone(data)
		sa.ctr(got, iv)

		block, _ := aes.NewCipher(key[:])
		var ctrBlock [16]byte
		binary.BigEndian.PutUint32(ctrBlock[0:4], nonce)
		binary.BigEndian.PutUint64(ctrBlock[4:12], iv)
		binary.BigEndian.PutUint32(ctrBlock[12:16], 1)
		want := make([]byte, len(data))
		cipher.NewCTR(block, ctrBlock[:]).XORKeyStream(want, data)
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCTRRoundTrip(t *testing.T) {
	f := func(key [16]byte, nonce uint32, iv uint64, data []byte) bool {
		sa := NewSA(1, nonce, key[:], []byte("k"), 0, 0)
		buf := bytes.Clone(data)
		sa.ctr(buf, iv)
		sa.ctr(buf, iv)
		return bytes.Equal(buf, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAESKeyLengthPanics(t *testing.T) {
	for _, n := range []int{0, 15, 24, 32} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSA with a %d-byte encryption key did not panic", n)
				}
			}()
			NewSA(1, 1, make([]byte, n), []byte("k"), 0, 0)
		}()
	}
}

// rfc2202ICV checks the SA's ICV against RFC 2202 HMAC-SHA1 digests
// truncated to 96 bits (RFC 2404).
func rfc2202ICV(t *testing.T, key, data []byte, digest string) {
	t.Helper()
	sa := NewSA(1, 1, make([]byte, 16), key, 0, 0)
	icv := sa.icv(data)
	if got, want := hex.EncodeToString(icv[:]), digest[:2*ICVSize]; got != want {
		t.Errorf("key %x: ICV %s, want %s", key, got, want)
	}
}

// TestHMACSHA1RFC2202Vectors: RFC 2202 test cases 1-5.
func TestHMACSHA1RFC2202Vectors(t *testing.T) {
	key4 := make([]byte, 25)
	for i := range key4 {
		key4[i] = byte(i + 1)
	}
	rfc2202ICV(t, bytes.Repeat([]byte{0x0b}, 20), []byte("Hi There"),
		"b617318655057264e28bc0b6fb378c8ef146be00")
	rfc2202ICV(t, []byte("Jefe"), []byte("what do ya want for nothing?"),
		"effcdf6ae5eb2fa2d27416d5f184df9c259a7c79")
	rfc2202ICV(t, bytes.Repeat([]byte{0xaa}, 20), bytes.Repeat([]byte{0xdd}, 50),
		"125d7342b9ac11cd91a39af48aa17b4f63f175d3")
	rfc2202ICV(t, key4, bytes.Repeat([]byte{0xcd}, 50),
		"4c9007f4026250c6bc8414f9bf50c86c2d7235da")
	rfc2202ICV(t, bytes.Repeat([]byte{0x0c}, 20), []byte("Test With Truncation"),
		"4c1a03424b55e07fe7f27be1d58bb9324a9a5a04")
}

// TestHMACLongKey: RFC 2202 test cases 6-7, whose 80-byte keys exceed
// the SHA-1 block size and must be hashed first.
func TestHMACLongKey(t *testing.T) {
	key := bytes.Repeat([]byte{0xaa}, 80)
	rfc2202ICV(t, key, []byte("Test Using Larger Than Block-Size Key - Hash Key First"),
		"aa4ae5e15272d00e95705637ce8a3b55ed402112")
	rfc2202ICV(t, key, []byte("Test Using Larger Than Block-Size Key and Larger Than One Block-Size Data"),
		"e8e99d0f45237d786d6bbaa7965c7808bbff1a91")
}

// TestHMACMatchesStdlib: the ICV is the first 96 bits of HMAC-SHA1 for
// any key and message.
func TestHMACMatchesStdlib(t *testing.T) {
	f := func(key, data []byte) bool {
		sa := NewSA(1, 1, make([]byte, 16), key, 0, 0)
		icv := sa.icv(data)
		mac := hmac.New(sha1.New, key)
		mac.Write(data)
		return bytes.Equal(icv[:], mac.Sum(nil)[:ICVSize])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestHMACContextReusable: the SA reuses one HMAC state for every
// packet; an earlier message must not leak into a later ICV.
func TestHMACContextReusable(t *testing.T) {
	sa := NewSA(1, 1, make([]byte, 16), []byte("key"), 0, 0)
	a1 := sa.icv([]byte("one"))
	_ = sa.icv([]byte("two"))
	if a2 := sa.icv([]byte("one")); a1 != a2 {
		t.Error("HMAC state not reset between ICVs")
	}
}

// TestEncapGolden pins the ESP wire format byte for byte: the SHA-256
// over every Encap output for four SAs (auth keys of 20 to 110 bytes)
// and inner sizes 20..1500 in steps of 7, each round-tripped through
// Decap. The digest was recorded from the implementation that the
// RFC 3686 and RFC 2202 vectors above also pin.
func TestEncapGolden(t *testing.T) {
	const want = "2c834c84f3798cbd42478462b44742067e1d1b0b3faca44acbabb28cc042df76"
	digest := sha256.New()
	dst := make([]byte, 2048)
	for i := 0; i < 4; i++ {
		enc := bytes.Repeat([]byte{byte(0x11 * (i + 1))}, 16)
		auth := bytes.Repeat([]byte{byte(0xa0 + i)}, 20+30*i)
		spi, nonce := uint32(0x100+i), 0x9e3779b9*uint32(i+1)
		local, peer := packet.IPv4Addr(0x0A000001+i), packet.IPv4Addr(0x0A010001+i)
		sender := NewSA(spi, nonce, enc, auth, local, peer)
		receiver := NewSA(spi, nonce, enc, auth, local, peer)
		for size := 20; size <= 1500; size += 7 {
			inner := make([]byte, size)
			for j := range inner {
				inner[j] = byte(j*31 + i)
			}
			outer, err := sender.Encap(dst, inner)
			if err != nil {
				t.Fatalf("SA %d size %d: %v", i, size, err)
			}
			digest.Write(outer) // Decap decrypts in place
			got, err := receiver.Decap(outer)
			if err != nil || !bytes.Equal(got, inner) {
				t.Fatalf("SA %d size %d: round trip failed (err %v)", i, size, err)
			}
		}
	}
	if got := hex.EncodeToString(digest.Sum(nil)); got != want {
		t.Errorf("Encap golden digest %s, want %s", got, want)
	}
}

// ---------------------------------------------------------------------------
// ESP
// ---------------------------------------------------------------------------

func testSA() (*SA, *SA) {
	enc := []byte("0123456789abcdef")
	auth := []byte("authauthauthauthauth")
	out := NewSA(0x1001, 0xdeadbeef, enc, auth, 0x0A000001, 0x0A000002)
	in := NewSA(0x1001, 0xdeadbeef, enc, auth, 0x0A000001, 0x0A000002)
	return out, in
}

func innerPacket(size int) []byte {
	var buf [2048]byte
	frame := packet.BuildUDP4(buf[:], size+packet.EthHdrLen,
		packet.MAC{}, packet.MAC{}, 0x0B000001, 0x0C000001, 7, 9)
	inner := make([]byte, size)
	copy(inner, frame[packet.EthHdrLen:])
	return inner
}

func TestESPRoundTrip(t *testing.T) {
	sender, receiver := testSA()
	inner := innerPacket(100)
	dst := make([]byte, 2048)
	outer, err := sender.Encap(dst, inner)
	if err != nil {
		t.Fatal(err)
	}
	got, err := receiver.Decap(outer)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, inner) {
		t.Error("decapped inner differs")
	}
}

func TestESPOuterHeaderFields(t *testing.T) {
	sender, _ := testSA()
	outer, err := sender.Encap(make([]byte, 2048), innerPacket(64))
	if err != nil {
		t.Fatal(err)
	}
	var hdr packet.IPv4Hdr
	if _, err := hdr.Decode(outer); err != nil {
		t.Fatal(err)
	}
	if hdr.Protocol != packet.ProtoESP {
		t.Errorf("protocol = %d", hdr.Protocol)
	}
	if hdr.Src != sender.LocalIP || hdr.Dst != sender.PeerIP {
		t.Errorf("outer addresses %v→%v", hdr.Src, hdr.Dst)
	}
	if int(hdr.TotalLen) != len(outer) {
		t.Errorf("TotalLen = %d, len = %d", hdr.TotalLen, len(outer))
	}
	if !packet.VerifyIPv4Checksum(outer) {
		t.Error("outer checksum invalid")
	}
}

func TestESPOverheadMatches(t *testing.T) {
	sender, _ := testSA()
	for _, size := range []int{40, 41, 42, 43, 64, 100, 1400} {
		inner := innerPacket(size)
		outer, err := sender.Encap(make([]byte, 2048), inner)
		if err != nil {
			t.Fatal(err)
		}
		if len(outer) != size+EncapOverhead(size) {
			t.Errorf("size %d: outer %d, want %d", size, len(outer), size+EncapOverhead(size))
		}
		// Trailer alignment (RFC 3686: 4-byte).
		espPayload := len(outer) - packet.IPv4HdrLen - espHdrLen - espIVLen - ICVSize
		if espPayload%4 != 0 {
			t.Errorf("size %d: ESP plaintext %d not 4-byte aligned", size, espPayload)
		}
	}
}

func TestESPCiphertextDiffersFromPlaintext(t *testing.T) {
	sender, _ := testSA()
	inner := innerPacket(200)
	outer, _ := sender.Encap(make([]byte, 2048), inner)
	body := outer[packet.IPv4HdrLen+espHdrLen+espIVLen:]
	if bytes.Contains(body, inner[:40]) {
		t.Error("plaintext visible in ESP body")
	}
}

func TestESPUniqueSequenceAndIV(t *testing.T) {
	sender, _ := testSA()
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		outer, _ := sender.Encap(make([]byte, 2048), innerPacket(64))
		seq := binary.BigEndian.Uint32(outer[packet.IPv4HdrLen+4:])
		iv := binary.BigEndian.Uint64(outer[packet.IPv4HdrLen+8:])
		if seq != uint32(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
		if seen[iv] {
			t.Fatalf("IV reuse at packet %d", i)
		}
		seen[iv] = true
	}
}

func TestESPTamperDetected(t *testing.T) {
	sender, receiver := testSA()
	outer, _ := sender.Encap(make([]byte, 2048), innerPacket(80))
	// Flip one ciphertext bit.
	outer[packet.IPv4HdrLen+espHdrLen+espIVLen+5] ^= 0x01
	if _, err := receiver.Decap(outer); err != ErrAuth {
		t.Errorf("tampered packet: err = %v, want ErrAuth", err)
	}
}

func TestESPReplayRejected(t *testing.T) {
	sender, receiver := testSA()
	outer, _ := sender.Encap(make([]byte, 2048), innerPacket(80))
	cp := make([]byte, len(outer))
	copy(cp, outer)
	if _, err := receiver.Decap(outer); err != nil {
		t.Fatal(err)
	}
	if _, err := receiver.Decap(cp); err != ErrReplay {
		t.Errorf("replay: err = %v, want ErrReplay", err)
	}
}

func TestESPOutOfOrderWithinWindow(t *testing.T) {
	sender, receiver := testSA()
	var pkts [][]byte
	for i := 0; i < 10; i++ {
		outer, _ := sender.Encap(make([]byte, 2048), innerPacket(64))
		cp := make([]byte, len(outer))
		copy(cp, outer)
		pkts = append(pkts, cp)
	}
	// Deliver 9 first, then the rest out of order.
	order := []int{9, 3, 7, 0, 5, 1, 8, 2, 6, 4}
	for _, i := range order {
		if _, err := receiver.Decap(pkts[i]); err != nil {
			t.Fatalf("packet %d rejected: %v", i, err)
		}
	}
}

func TestESPStaleBeyondWindowRejected(t *testing.T) {
	sender, receiver := testSA()
	first, _ := sender.Encap(make([]byte, 2048), innerPacket(64))
	firstCp := make([]byte, len(first))
	copy(firstCp, first)
	// Advance far past the window.
	for i := 0; i < 100; i++ {
		outer, _ := sender.Encap(make([]byte, 2048), innerPacket(64))
		if _, err := receiver.Decap(outer); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := receiver.Decap(firstCp); err != ErrReplay {
		t.Errorf("stale packet: err = %v, want ErrReplay", err)
	}
}

func TestESPWrongSPI(t *testing.T) {
	sender, _ := testSA()
	other := NewSA(0x2002, 0xdeadbeef, []byte("0123456789abcdef"),
		[]byte("auth"), 1, 2)
	outer, _ := sender.Encap(make([]byte, 2048), innerPacket(64))
	if _, err := other.Decap(outer); err != ErrBadSPI {
		t.Errorf("err = %v, want ErrBadSPI", err)
	}
}

func TestESPMalformedTooShort(t *testing.T) {
	_, receiver := testSA()
	short := make([]byte, packet.IPv4HdrLen+10)
	hdr := packet.IPv4Hdr{IHL: 5, TotalLen: uint16(len(short)), TTL: 64,
		Protocol: packet.ProtoESP, Src: 1, Dst: 2}
	hdr.Encode(short)
	if _, err := receiver.Decap(short); err != ErrMalformed {
		t.Errorf("err = %v, want ErrMalformed", err)
	}
}

func TestESPNonESPProtocol(t *testing.T) {
	_, receiver := testSA()
	var buf [128]byte
	frame := packet.BuildUDP4(buf[:], 64, packet.MAC{}, packet.MAC{}, 1, 2, 3, 4)
	if _, err := receiver.Decap(frame[packet.EthHdrLen:]); err != ErrMalformed {
		t.Errorf("err = %v, want ErrMalformed", err)
	}
}

// Property: Encap→Decap is the identity for any payload size/content.
func TestESPRoundTripProperty(t *testing.T) {
	f := func(payload []byte, sizeSeed uint16) bool {
		sender, receiver := testSA()
		size := 28 + int(sizeSeed)%1400
		inner := innerPacket(size)
		if len(payload) > 0 {
			copy(inner[28:], payload)
		}
		outer, err := sender.Encap(make([]byte, 2048), inner)
		if err != nil {
			return false
		}
		got, err := receiver.Decap(outer)
		return err == nil && bytes.Equal(got, inner)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestReplayWindowUnit(t *testing.T) {
	var w replayWindow
	if w.check(0) {
		t.Error("seq 0 accepted")
	}
	if !w.check(1) {
		t.Error("seq 1 rejected on empty window")
	}
	w.advance(1)
	if w.check(1) {
		t.Error("seq 1 accepted twice")
	}
	w.advance(100)
	if w.check(100) || !w.check(99) || !w.check(37) {
		t.Error("window state wrong after jump to 100")
	}
	if w.check(36) {
		t.Error("seq 36 (100-64) inside 64-bit window accepted") // off=64 ≥ size
	}
	w.advance(99)
	if w.check(99) {
		t.Error("seq 99 accepted twice")
	}
}

func BenchmarkESPEncap64B(b *testing.B) {
	sender, _ := testSA()
	inner := innerPacket(64)
	dst := make([]byte, 2048)
	for i := 0; i < b.N; i++ {
		if _, err := sender.Encap(dst, inner); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecapNeverPanicsOnGarbage: arbitrary bytes (including valid-ish
// IPv4/ESP prefixes) must be rejected with errors, never a panic.
func TestDecapNeverPanicsOnGarbage(t *testing.T) {
	_, receiver := testSA()
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Decap panicked: %v", r)
			}
		}()
		_, _ = receiver.Decap(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestDecapTruncatedESP: every truncation of a valid ESP packet fails
// cleanly.
func TestDecapTruncatedESP(t *testing.T) {
	sender, receiver := testSA()
	outer, _ := sender.Encap(make([]byte, 2048), innerPacket(120))
	for n := 0; n < len(outer); n++ {
		cp := make([]byte, n)
		copy(cp, outer[:n])
		if _, err := receiver.Decap(cp); err == nil {
			t.Fatalf("truncated ESP (%d of %d bytes) accepted", n, len(outer))
		}
	}
}

// TestDecapBitflipSweep: flipping any single byte of a valid ESP packet
// must be detected (header fields → malformed/bad SPI/replay; body/ICV
// → auth failure). No flip may yield a successful decap of wrong data.
func TestDecapBitflipSweep(t *testing.T) {
	inner := innerPacket(64)
	sender, _ := testSA()
	outer, _ := sender.Encap(make([]byte, 2048), inner)
	for pos := 0; pos < len(outer); pos++ {
		// Fresh receiver each time (replay window state).
		_, receiver := testSA()
		cp := make([]byte, len(outer))
		copy(cp, outer)
		cp[pos] ^= 0x01
		got, err := receiver.Decap(cp)
		if err == nil {
			// Flips inside the outer IP header don't break ESP underneath
			// (TOS etc.); the decapped inner must still be intact then.
			if string(got) != string(inner) {
				t.Fatalf("bit flip at %d yielded corrupted plaintext", pos)
			}
		}
	}
}
