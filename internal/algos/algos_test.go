package algos

import (
	"bytes"
	"crypto/aes"
	"crypto/des"
	"crypto/sha256"
	"encoding/binary"
	"hash/crc32"
	"math/big"
	"sort"
	"testing"
	"testing/quick"

	"agilefpga/internal/fpga"
	"agilefpga/internal/sim"
)

func TestBankComplete(t *testing.T) {
	bank := Bank()
	if len(bank) != BankSize {
		t.Fatalf("bank has %d functions, want %d", len(bank), BankSize)
	}
	seenID := map[uint16]bool{}
	seenName := map[string]bool{}
	for _, f := range bank {
		if seenID[f.ID()] || seenName[f.Name()] {
			t.Errorf("duplicate id/name: %d %q", f.ID(), f.Name())
		}
		seenID[f.ID()] = true
		seenName[f.Name()] = true
		if f.LUTs <= 0 || f.InBus == 0 || f.OutBus == 0 || f.BlockBytes <= 0 {
			t.Errorf("%s: degenerate spec %+v", f.Name(), f)
		}
	}
}

func TestRegisterAll(t *testing.T) {
	reg := fpga.NewRegistry()
	if err := RegisterAll(reg); err != nil {
		t.Fatal(err)
	}
	for _, f := range Bank() {
		if c, ok := reg.Lookup(f.ID()); !ok || c.Name() != f.Name() {
			t.Errorf("registry lacks %s", f.Name())
		}
	}
	if err := RegisterAll(reg); err == nil {
		t.Error("double registration accepted")
	}
}

func TestByName(t *testing.T) {
	f, err := ByName("aes128")
	if err != nil || f.ID() != IDAES128 {
		t.Errorf("ByName(aes128) = %v, %v", f, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestEmptyInputRejected(t *testing.T) {
	for _, f := range Bank() {
		if _, err := f.Exec(nil); err == nil {
			t.Errorf("%s: empty input accepted", f.Name())
		}
	}
}

func TestOutputLenMatchesExec(t *testing.T) {
	rng := sim.NewRNG(5)
	for _, f := range Bank() {
		for _, n := range []int{1, f.BlockBytes, f.BlockBytes + 1, 3 * f.BlockBytes} {
			in := make([]byte, n)
			for i := range in {
				in[i] = byte(rng.Uint64())
			}
			out, err := f.Exec(in)
			if err != nil {
				t.Fatalf("%s(%d): %v", f.Name(), n, err)
			}
			if len(out) != f.OutputLen(n) {
				t.Errorf("%s(%d): output %d bytes, OutputLen says %d", f.Name(), n, len(out), f.OutputLen(n))
			}
		}
	}
}

// execSizes are the input sizes the Exec contract tests sweep: whole
// blocks (which Exec hands to the kernel without a copy), 1 KiB rounded
// up to whole blocks, and a ragged size that forces the padded copy.
func execSizes(f *Function) []int {
	return []int{f.BlockBytes, 2 * f.BlockBytes, f.Blocks(1024) * f.BlockBytes, f.BlockBytes + 1}
}

// TestExecDoesNotMutateInput: fpga.Core promises read-only input. The
// buffer carries spare capacity behind the input so that a kernel that
// appends to its argument is caught as well.
func TestExecDoesNotMutateInput(t *testing.T) {
	rng := sim.NewRNG(6)
	for _, f := range Bank() {
		for _, n := range execSizes(f) {
			buf := make([]byte, n+64)
			for i := range buf {
				buf[i] = byte(rng.Uint64())
			}
			want := append([]byte(nil), buf...)
			if _, err := f.Exec(buf[:n]); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, want) {
				t.Errorf("%s(%d): Exec mutated its input buffer", f.Name(), n)
			}
		}
	}
}

// TestExecOutputDoesNotAliasInput: fpga.Core promises fresh output, so
// scribbling over either buffer after the call must not show in the
// other.
func TestExecOutputDoesNotAliasInput(t *testing.T) {
	rng := sim.NewRNG(12)
	for _, f := range Bank() {
		for _, n := range execSizes(f) {
			in := make([]byte, n)
			for i := range in {
				in[i] = byte(rng.Uint64())
			}
			wantIn := append([]byte(nil), in...)
			out, err := f.Exec(in)
			if err != nil {
				t.Fatal(err)
			}
			wantOut := append([]byte(nil), out...)
			for i := range out {
				out[i] ^= 0xFF
			}
			if !bytes.Equal(in, wantIn) {
				t.Errorf("%s(%d): writing the output changed the input", f.Name(), n)
			}
			for i := range out {
				out[i] ^= 0xFF
			}
			for i := range in {
				in[i] ^= 0xFF
			}
			if !bytes.Equal(out, wantOut) {
				t.Errorf("%s(%d): writing the input changed the output", f.Name(), n)
			}
		}
	}
}

func TestExecDeterministic(t *testing.T) {
	rng := sim.NewRNG(7)
	for _, f := range Bank() {
		in := make([]byte, 3*f.BlockBytes)
		for i := range in {
			in[i] = byte(rng.Uint64())
		}
		a, _ := f.Exec(in)
		b, _ := f.Exec(in)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: non-deterministic", f.Name())
		}
	}
}

func TestCycleModelsMonotonic(t *testing.T) {
	for _, f := range Bank() {
		if f.ExecCycles(f.BlockBytes) > f.ExecCycles(100*f.BlockBytes) {
			t.Errorf("%s: ExecCycles not monotonic", f.Name())
		}
		if f.SWCycles(f.BlockBytes) > f.SWCycles(100*f.BlockBytes) {
			t.Errorf("%s: SWCycles not monotonic", f.Name())
		}
		if f.ExecCycles(0) == 0 && f.hwSetup > 0 {
			t.Errorf("%s: setup cost lost", f.Name())
		}
	}
}

// --- AES against crypto/aes ---

func TestAESMatchesStdlib(t *testing.T) {
	block, err := aes.NewCipher(aesKey[:])
	if err != nil {
		t.Fatal(err)
	}
	f := func(in [16]byte) bool {
		want := make([]byte, 16)
		block.Encrypt(want, in[:])
		got, err := AES128().Exec(in[:])
		return err == nil && bytes.Equal(got, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAESMultiBlockAndPadding(t *testing.T) {
	block, _ := aes.NewCipher(aesKey[:])
	in := []byte("hello agile co-processor") // 24 bytes → padded to 32
	got, err := AES128().Exec(in)
	if err != nil {
		t.Fatal(err)
	}
	padded := make([]byte, 32)
	copy(padded, in)
	want := make([]byte, 32)
	block.Encrypt(want[:16], padded[:16])
	block.Encrypt(want[16:], padded[16:])
	if !bytes.Equal(got, want) {
		t.Error("multi-block AES mismatch")
	}
}

// --- DES against crypto/des ---

func TestDESMatchesStdlib(t *testing.T) {
	block, err := des.NewCipher(desKey[:])
	if err != nil {
		t.Fatal(err)
	}
	f := func(in [8]byte) bool {
		want := make([]byte, 8)
		block.Encrypt(want, in[:])
		got, err := DES().Exec(in[:])
		return err == nil && bytes.Equal(got, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// --- SHA-256 against crypto/sha256 ---

func TestSHA256MatchesStdlib(t *testing.T) {
	f := func(msg []byte) bool {
		want := sha256.Sum256(msg)
		got := sha256Digest(msg)
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// The Function digests the block-padded input.
	in := []byte("abc")
	padded := make([]byte, 64)
	copy(padded, in)
	want := sha256.Sum256(padded)
	got, _ := SHA256().Exec(in)
	if !bytes.Equal(got, want[:]) {
		t.Error("Function-level SHA-256 mismatch")
	}
}

// --- CRC-32 against hash/crc32 ---

func TestCRC32MatchesStdlib(t *testing.T) {
	f := func(msg []byte) bool {
		// Compare on word-padded input (the function's granule).
		n := (len(msg) + 3) / 4 * 4
		padded := make([]byte, n)
		copy(padded, msg)
		want := crc32.ChecksumIEEE(padded)
		got, err := CRC32().Exec(padded)
		if err != nil || len(got) != 4 {
			return len(padded) == 0 // empty input is rejected by design
		}
		return binary.LittleEndian.Uint32(got) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// --- FIR properties ---

func TestFIRImpulseResponse(t *testing.T) {
	// An impulse of 1<<14 (0.5 in Q15) must reproduce the coefficients
	// halved, within rounding.
	in := make([]byte, 2*32)
	binary.LittleEndian.PutUint16(in, uint16(int16(1<<14)))
	out, err := FIR().Exec(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		got := int32(int16(binary.LittleEndian.Uint16(out[2*i:])))
		// (1<<14 * c) >> 15 == c >> 1, truncated toward -inf for negatives.
		want := int32(int64(1<<14) * int64(firCoeff[i]) >> 15)
		if got != want {
			t.Errorf("tap %d: got %d, want %d", i, got, want)
		}
	}
}

func TestFIRLinearity(t *testing.T) {
	// FIR(a) + FIR(b) == FIR(a+b) when no saturation occurs.
	rng := sim.NewRNG(8)
	n := 64
	a := make([]byte, 2*n)
	b := make([]byte, 2*n)
	s := make([]byte, 2*n)
	for i := 0; i < n; i++ {
		x := int16(rng.Intn(2000) - 1000)
		y := int16(rng.Intn(2000) - 1000)
		binary.LittleEndian.PutUint16(a[2*i:], uint16(x))
		binary.LittleEndian.PutUint16(b[2*i:], uint16(y))
		binary.LittleEndian.PutUint16(s[2*i:], uint16(x+y))
	}
	fa, _ := FIR().Exec(a)
	fb, _ := FIR().Exec(b)
	fs, _ := FIR().Exec(s)
	for i := 0; i < n; i++ {
		ga := int32(int16(binary.LittleEndian.Uint16(fa[2*i:])))
		gb := int32(int16(binary.LittleEndian.Uint16(fb[2*i:])))
		gs := int32(int16(binary.LittleEndian.Uint16(fs[2*i:])))
		if d := gs - ga - gb; d < -2 || d > 2 { // rounding slack
			t.Fatalf("sample %d: linearity off by %d", i, d)
		}
	}
}

// --- FFT properties ---

func TestFFTConstantInput(t *testing.T) {
	// DC input concentrates all energy in bin 0: X[0] = sum/64 (with the
	// per-stage scaling), all other bins ~0.
	in := make([]byte, fftPoints*4)
	for i := 0; i < fftPoints; i++ {
		binary.LittleEndian.PutUint16(in[4*i:], uint16(int16(6400)))
	}
	out, err := FFT().Exec(in)
	if err != nil {
		t.Fatal(err)
	}
	re0 := int16(binary.LittleEndian.Uint16(out[0:]))
	if re0 < 6300 || re0 > 6500 {
		t.Errorf("DC bin = %d, want ≈6400", re0)
	}
	for i := 1; i < fftPoints; i++ {
		re := int16(binary.LittleEndian.Uint16(out[4*i:]))
		im := int16(binary.LittleEndian.Uint16(out[4*i+2:]))
		if re > 8 || re < -8 || im > 8 || im < -8 {
			t.Errorf("bin %d leakage: %d%+di", i, re, im)
		}
	}
}

func TestFFTSingleTone(t *testing.T) {
	// A complex exponential at bin 3 lands in bin 3.
	in := make([]byte, fftPoints*4)
	for i := 0; i < fftPoints; i++ {
		ang := 2 * 3.14159265358979 * 3 * float64(i) / fftPoints
		binary.LittleEndian.PutUint16(in[4*i:], uint16(int16(8000*cosApprox(ang))))
		binary.LittleEndian.PutUint16(in[4*i+2:], uint16(int16(8000*sinApprox(ang))))
	}
	out, _ := FFT().Exec(in)
	best, bestMag := -1, int32(0)
	for i := 0; i < fftPoints; i++ {
		re := int32(int16(binary.LittleEndian.Uint16(out[4*i:])))
		im := int32(int16(binary.LittleEndian.Uint16(out[4*i+2:])))
		mag := re*re + im*im
		if mag > bestMag {
			best, bestMag = i, mag
		}
	}
	if best != 3 {
		t.Errorf("tone landed in bin %d, want 3", best)
	}
}

func cosApprox(x float64) float64 { return sinApprox(x + 3.14159265358979/2) }

func sinApprox(x float64) float64 {
	// Range-reduce and use the math library via a local alias would be
	// simpler, but keep the test self-contained with a Taylor series.
	const pi = 3.14159265358979
	for x > pi {
		x -= 2 * pi
	}
	for x < -pi {
		x += 2 * pi
	}
	x2 := x * x
	return x * (1 - x2/6*(1-x2/20*(1-x2/42*(1-x2/72))))
}

// --- MatMul against big-integer reference ---

func TestMatMulIdentity(t *testing.T) {
	in := make([]byte, matInBytes)
	// A = arbitrary, B = I.
	rng := sim.NewRNG(9)
	for i := 0; i < matN*matN; i++ {
		binary.LittleEndian.PutUint16(in[2*i:], uint16(rng.Uint64()))
	}
	for i := 0; i < matN; i++ {
		binary.LittleEndian.PutUint16(in[2*(matN*matN+i*matN+i):], 1)
	}
	out, err := MatMul().Exec(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < matN*matN; i++ {
		a := int32(int16(binary.LittleEndian.Uint16(in[2*i:])))
		c := int32(binary.LittleEndian.Uint32(out[4*i:]))
		if a != c {
			t.Fatalf("A·I ≠ A at %d: %d vs %d", i, a, c)
		}
	}
}

func TestMatMulAssociativityWithBig(t *testing.T) {
	// Cross-check one random product against math/big arithmetic.
	rng := sim.NewRNG(10)
	in := make([]byte, matInBytes)
	for i := 0; i < 2*matN*matN; i++ {
		binary.LittleEndian.PutUint16(in[2*i:], uint16(rng.Uint64()))
	}
	out, _ := MatMul().Exec(in)
	for i := 0; i < matN; i++ {
		for j := 0; j < matN; j++ {
			acc := new(big.Int)
			for k := 0; k < matN; k++ {
				a := int64(int16(binary.LittleEndian.Uint16(in[2*(i*matN+k):])))
				b := int64(int16(binary.LittleEndian.Uint16(in[2*(matN*matN+k*matN+j):])))
				acc.Add(acc, new(big.Int).Mul(big.NewInt(a), big.NewInt(b)))
			}
			got := int32(binary.LittleEndian.Uint32(out[4*(i*matN+j):]))
			want := int32(acc.Int64()) // 32-bit accumulator wraparound
			if want != got {
				t.Fatalf("C[%d][%d] = %d, want %d", i, j, got, want)
			}
		}
	}
}

// --- GF(2^8) multiplier properties ---

func TestGFMulProperties(t *testing.T) {
	// a·1 = a, a·0 = 0, commutativity, and distributivity over XOR.
	f := func(a, b, c byte) bool {
		if gfMulByte(a, 1) != a || gfMulByte(a, 0) != 0 {
			return false
		}
		if gfMulByte(a, b) != gfMulByte(b, a) {
			return false
		}
		return gfMulByte(a, b^c) == gfMulByte(a, b)^gfMulByte(a, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGFMulExecShape(t *testing.T) {
	in := []byte{2, 3, 0x53, 0xCA, 1, 7, 0, 9}
	out, err := GFMul().Exec(in)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{6, gfMulByte(0x53, 0xCA), 7, 0}
	if !bytes.Equal(out, want) {
		t.Errorf("out = %x, want %x", out, want)
	}
}

// --- ModExp against math/big ---

func TestModExpMatchesBig(t *testing.T) {
	f := func(base, exp, mod uint64) bool {
		in := make([]byte, 24)
		binary.LittleEndian.PutUint64(in, base)
		binary.LittleEndian.PutUint64(in[8:], exp)
		binary.LittleEndian.PutUint64(in[16:], mod)
		out, err := ModExp().Exec(in)
		if err != nil {
			return false
		}
		got := binary.LittleEndian.Uint64(out)
		if mod == 0 {
			return got == 0
		}
		want := new(big.Int).Exp(
			new(big.Int).SetUint64(base),
			new(big.Int).SetUint64(exp),
			new(big.Int).SetUint64(mod),
		)
		return got == want.Uint64()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// --- Bitonic sorter ---

func TestBitonicSortsBlocks(t *testing.T) {
	rng := sim.NewRNG(11)
	in := make([]byte, 2*bitonicN*4) // two blocks
	for i := 0; i < 2*bitonicN; i++ {
		binary.LittleEndian.PutUint32(in[4*i:], uint32(rng.Uint64()))
	}
	out, err := Bitonic().Exec(in)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 2; b++ {
		var vals []uint32
		var orig []uint32
		for i := 0; i < bitonicN; i++ {
			vals = append(vals, binary.LittleEndian.Uint32(out[b*bitonicN*4+4*i:]))
			orig = append(orig, binary.LittleEndian.Uint32(in[b*bitonicN*4+4*i:]))
		}
		if !sort.SliceIsSorted(vals, func(i, j int) bool { return vals[i] < vals[j] }) {
			t.Fatalf("block %d not sorted", b)
		}
		// Same multiset.
		sort.Slice(orig, func(i, j int) bool { return orig[i] < orig[j] })
		for i := range vals {
			if vals[i] != orig[i] {
				t.Fatalf("block %d is not a permutation of its input", b)
			}
		}
	}
}

// --- Offload shape: hardware must beat software per byte at scale ---

func TestHardwareBeatsSoftwareAtScale(t *testing.T) {
	// At 100 MHz fabric vs 2 GHz host: hw wins when swCycles/20 >
	// hwCycles. Every bank member offloads well at scale except md5,
	// which is the deliberate negative control: its 64 serially
	// dependent rounds cap the fabric at one block per 66 cycles while
	// its software was designed to be fast — offload cannot pay.
	const ratio = 20 // host clock / fabric clock
	n := 1 << 16
	for _, f := range Bank() {
		hw := f.ExecCycles(n)
		sw := f.SWCycles(n)
		if f.Name() == "md5" {
			if sw/ratio > hw {
				t.Errorf("md5 unexpectedly offloads well — negative control broken")
			}
			continue
		}
		if sw/ratio <= hw {
			t.Errorf("%s: hardware (%d fabric cyc) not faster than software (%d host cyc)", f.Name(), hw, sw)
		}
	}
}
