package algos

// Tests for the extended bank: SHA-1, 3DES, Reed-Solomon and Viterbi.

import (
	"bytes"
	"crypto/des"
	"crypto/sha1"
	"testing"
	"testing/quick"

	"agilefpga/internal/sim"
)

// --- SHA-1 against crypto/sha1 ---

func TestSHA1MatchesStdlib(t *testing.T) {
	f := func(msg []byte) bool {
		want := sha1.Sum(msg)
		return sha1Digest(msg) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	in := []byte("abc")
	padded := make([]byte, 64)
	copy(padded, in)
	want := sha1.Sum(padded)
	got, _ := SHA1().Exec(in)
	if !bytes.Equal(got, want[:]) {
		t.Error("Function-level SHA-1 mismatch")
	}
}

// --- 3DES against crypto/des ---

func TestTDESMatchesStdlib(t *testing.T) {
	var key []byte
	for _, k := range tdesKeys {
		key = append(key, k[:]...)
	}
	block, err := des.NewTripleDESCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	f := func(in [8]byte) bool {
		want := make([]byte, 8)
		block.Encrypt(want, in[:])
		got, err := TDES().Exec(in[:])
		return err == nil && bytes.Equal(got, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTDESDiffersFromDES(t *testing.T) {
	in := []byte("8bytes!!")
	a, _ := DES().Exec(in)
	b, _ := TDES().Exec(in)
	if bytes.Equal(a, b) {
		t.Error("3DES output equals single DES")
	}
}

// --- Reed-Solomon ---

func TestRS255SyndromesZero(t *testing.T) {
	rsOnce.Do(rsInit)
	rng := sim.NewRNG(13)
	f := func(seed uint32) bool {
		data := make([]byte, rsK)
		for i := range data {
			data[i] = byte(rng.Uint64() ^ uint64(seed))
		}
		out, err := RS255().Exec(data)
		if err != nil || len(out) != rsN {
			return false
		}
		// Systematic: data passes through unchanged.
		if !bytes.Equal(out[:rsK], data) {
			return false
		}
		// Valid codeword: all 32 syndromes vanish.
		syn := rsSyndromes(out)
		for _, s := range syn {
			if s != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestRS255DetectsCorruption(t *testing.T) {
	rsOnce.Do(rsInit)
	data := make([]byte, rsK)
	for i := range data {
		data[i] = byte(i * 7)
	}
	out, err := RS255().Exec(data)
	if err != nil {
		t.Fatal(err)
	}
	out[100] ^= 0x01
	syn := rsSyndromes(out)
	nonzero := false
	for _, s := range syn {
		if s != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Error("single-byte corruption left all syndromes zero")
	}
}

func TestRS255GeneratorRoots(t *testing.T) {
	rsOnce.Do(rsInit)
	// g(α^i) must be zero for i = 0..31 and non-zero at α^32.
	eval := func(power int) byte {
		x := rsExp[power%255]
		var acc byte
		for j := rsParity; j >= 0; j-- {
			acc = rsMul(acc, x) ^ rsGen[j]
		}
		return acc
	}
	for i := 0; i < rsParity; i++ {
		if eval(i) != 0 {
			t.Errorf("g(α^%d) = %d, want 0", i, eval(i))
		}
	}
	if eval(rsParity) == 0 {
		t.Error("g has a spurious 33rd root")
	}
}

func TestRSMulFieldProperties(t *testing.T) {
	rsOnce.Do(rsInit)
	f := func(a, b, c byte) bool {
		if rsMul(a, 1) != a || rsMul(a, 0) != 0 {
			return false
		}
		if rsMul(a, b) != rsMul(b, a) {
			return false
		}
		return rsMul(a, b^c) == rsMul(a, b)^rsMul(a, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// --- Viterbi ---

func TestViterbiRoundTrip(t *testing.T) {
	rng := sim.NewRNG(17)
	f := func(seed uint32) bool {
		info := make([]byte, 24) // three blocks
		for i := range info {
			info[i] = byte(rng.Uint64() ^ uint64(seed))
		}
		channel := vitEncodeBits(info)
		got, err := Viterbi().Exec(channel)
		return err == nil && bytes.Equal(got, info)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestViterbiCorrectsErrors(t *testing.T) {
	// The free distance of the K=7 rate-1/2 code is 10: a couple of
	// well-separated channel-bit flips per block must still decode.
	info := []byte{0xA5, 0x3C, 0x17, 0xF0, 0x42, 0x99, 0x01, 0xEE}
	channel := vitEncodeBits(info)
	if len(channel) != 16 {
		t.Fatalf("channel block is %d bytes", len(channel))
	}
	corrupted := append([]byte(nil), channel...)
	corrupted[2] ^= 0x40  // one channel bit
	corrupted[11] ^= 0x02 // another, far away
	got, err := Viterbi().Exec(corrupted)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, info) {
		t.Errorf("decoder failed to correct 2 channel errors:\n got %x\nwant %x", got, info)
	}
}

func TestViterbiUncorrectableDegradesGracefully(t *testing.T) {
	// Massive corruption cannot round-trip, but must not panic and must
	// produce the right output length.
	channel := make([]byte, 16)
	for i := range channel {
		channel[i] = 0xFF
	}
	got, err := Viterbi().Exec(channel)
	if err != nil || len(got) != 8 {
		t.Fatalf("got %d bytes, err %v", len(got), err)
	}
}

func TestExtendedBankRegistered(t *testing.T) {
	names := map[string]bool{}
	for _, f := range Bank() {
		names[f.Name()] = true
	}
	for _, want := range []string{"sha1", "tdes", "rs255", "viterbi"} {
		if !names[want] {
			t.Errorf("bank missing %s", want)
		}
	}
	if len(Bank()) != BankSize {
		t.Errorf("bank has %d entries, BankSize says %d", len(Bank()), BankSize)
	}
}

// rsSyndromes evaluates the codeword at the generator roots; all-zero
// means a valid codeword.
func rsSyndromes(code []byte) [rsParity]byte {
	var syn [rsParity]byte
	for i := 0; i < rsParity; i++ {
		var s byte
		alpha := rsExp[i]
		for _, c := range code {
			s = rsMul(s, alpha) ^ c
		}
		syn[i] = s
	}
	return syn
}
