package fpga

import (
	"encoding/binary"
	"errors"
	"slices"
	"testing"
	"testing/quick"
)

func TestGeometryValidate(t *testing.T) {
	if err := DefaultGeometry.Validate(); err != nil {
		t.Fatalf("default geometry invalid: %v", err)
	}
	bad := []Geometry{{0, 4}, {4, 0}, {-1, 4}, {1, 4}}
	for _, g := range bad {
		if g.Validate() == nil {
			t.Errorf("geometry %+v should be invalid", g)
		}
	}
}

func TestGeometrySizes(t *testing.T) {
	g := Geometry{Rows: 32, Cols: 48}
	if got := g.FrameBytes(); got != 32*CLBBytes {
		t.Errorf("FrameBytes = %d", got)
	}
	if got := g.FrameWords(); got != (32*CLBBytes+3)/4 {
		t.Errorf("FrameWords = %d", got)
	}
	if got := g.LUTsPerFrame(); got != 31*8 {
		t.Errorf("LUTsPerFrame = %d, want %d", got, 31*8)
	}
}

func TestFramesForLUTs(t *testing.T) {
	g := Geometry{Rows: 32, Cols: 48}
	per := g.LUTsPerFrame()
	cases := []struct{ luts, want int }{
		{0, 1}, {1, 1}, {per, 1}, {per + 1, 2}, {3 * per, 3}, {3*per + 5, 4},
	}
	for _, c := range cases {
		if got := g.FramesForLUTs(c.luts); got != c.want {
			t.Errorf("FramesForLUTs(%d) = %d, want %d", c.luts, got, c.want)
		}
	}
}

func TestCLBRoundTrip(t *testing.T) {
	f := func(inits [8]uint16, flags byte, sw uint32) bool {
		var c CLB
		k := 0
		for s := range c.Slices {
			for l := range c.Slices[s].LUTs {
				c.Slices[s].LUTs[l].Init = inits[k]
				k++
			}
		}
		c.Flags = flags
		c.Switch = sw
		buf := make([]byte, CLBBytes)
		if n := EncodeCLB(buf, &c); n != CLBBytes {
			return false
		}
		got := DecodeCLB(buf)
		return got == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSignatureRoundTrip(t *testing.T) {
	f := func(fn, idx, total, serial uint16) bool {
		frame := make([]byte, 64)
		EncodeSignature(frame, Signature{FnID: fn, Index: idx, Total: total, Serial: serial})
		got, ok := DecodeSignature(frame)
		return ok && got == (Signature{FnID: fn, Index: idx, Total: total, Serial: serial})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSignatureRejectsCorruption(t *testing.T) {
	frame := make([]byte, 64)
	EncodeSignature(frame, Signature{FnID: 7, Index: 1, Total: 3, Serial: 9})
	for i := 0; i < SigBytes; i++ {
		mut := append([]byte(nil), frame...)
		mut[i] ^= 0x01
		if _, ok := DecodeSignature(mut); ok {
			t.Errorf("flipping signature byte %d went undetected", i)
		}
	}
	if _, ok := DecodeSignature(make([]byte, 64)); ok {
		t.Error("all-zero frame decoded as signed")
	}
	if _, ok := DecodeSignature(make([]byte, 4)); ok {
		t.Error("short frame decoded as signed")
	}
}

// echoCore is a trivial behavioural core for fabric tests.
type echoCore struct {
	id   uint16
	name string
}

func (e echoCore) ID() uint16          { return e.id }
func (e echoCore) Name() string        { return e.name }
func (e echoCore) OutputLen(n int) int { return n }
func (e echoCore) ExecInto(out, in []byte) error {
	for i, b := range in {
		out[i] = b ^ 0x5A
	}
	return nil
}
func (e echoCore) ExecCycles(n int) uint64 { return uint64(n) + 4 }
func (e echoCore) Granule() int            { return 1 }

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(echoCore{1, "echo"}); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(echoCore{1, "other"}); err == nil {
		t.Error("duplicate id accepted")
	}
	if err := r.Register(echoCore{2, "echo"}); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := r.Register(nil); err == nil {
		t.Error("nil core accepted")
	}
	if c, ok := r.Lookup(1); !ok || c.Name() != "echo" {
		t.Error("Lookup(1) failed")
	}
	if _, ok := r.Lookup(99); ok {
		t.Error("Lookup(99) should fail")
	}
}

// testFabric builds a small fabric with one registered echo core.
func testFabric(t *testing.T) *Fabric {
	t.Helper()
	reg := NewRegistry()
	if err := reg.Register(echoCore{7, "echo"}); err != nil {
		t.Fatal(err)
	}
	return NewFabric(Geometry{Rows: 4, Cols: 8}, reg)
}

// wordStream assembles bitstream words and tracks the port CRC.
type wordStream struct {
	words   []uint32
	crc     uint32
	scratch []byte
}

func (s *wordStream) raw(w uint32) { s.words = append(s.words, w) }

func (s *wordStream) reg(reg int, vals ...uint32) {
	s.raw(MakeType1(OpWrite, reg, len(vals)))
	for _, v := range vals {
		if reg != RegCRC {
			s.crc = CRCUpdateBurst(s.crc, reg, binary.BigEndian.AppendUint32(nil, v), &s.scratch)
		}
		s.raw(v)
	}
	if reg == RegCMD && len(vals) == 1 && vals[0] == CmdRCRC {
		s.crc = 0
	}
}

func (s *wordStream) bytes() []byte {
	out := make([]byte, 4*len(s.words))
	for i, w := range s.words {
		binary.BigEndian.PutUint32(out[4*i:], w)
	}
	return out
}

// frameImage builds a frame payload with a valid signature and a filler
// pattern, returned as FDRI words.
func frameImage(g Geometry, sig Signature, fill byte) []uint32 {
	frame := make([]byte, g.FrameBytes())
	for i := range frame {
		frame[i] = fill
	}
	EncodeSignature(frame, sig)
	words := make([]uint32, g.FrameWords())
	for i := range words {
		var buf [4]byte
		copy(buf[:], frame[4*i:])
		words[i] = binary.BigEndian.Uint32(buf[:])
	}
	return words
}

// loadFunction writes a two-frame function into frames 2 and 5 through the
// configuration port, exactly as a partial bitstream would.
func loadFunction(t *testing.T, f *Fabric, serial uint16) {
	t.Helper()
	g := f.Geometry()
	var s wordStream
	s.raw(DummyWord)
	s.raw(SyncWord)
	s.reg(RegCMD, CmdRCRC)
	s.reg(RegIDCODE, f.IDCode())
	s.reg(RegFLR, uint32(g.FrameWords()))
	s.reg(RegCMD, CmdWCFG)
	for n, far := range []int{2, 5} {
		s.reg(RegFAR, uint32(far))
		s.reg(RegFDRI, frameImage(g, Signature{FnID: 7, Index: uint16(n), Total: 2, Serial: serial}, 0xA0+byte(n))...)
	}
	s.reg(RegCMD, CmdLFRM)
	s.reg(RegCRC, s.crc)
	s.reg(RegCMD, CmdDESYNC)
	if _, err := f.Port().Write(s.bytes()); err != nil {
		t.Fatalf("port write: %v", err)
	}
	if err := f.Port().fault; err != nil {
		t.Fatalf("port fault: %v", err)
	}
}

func TestPortLoadsAndActivates(t *testing.T) {
	f := testFabric(t)
	loadFunction(t, f, 1)

	if sig, ok := f.FrameSignature(2); !ok || sig.FnID != 7 || sig.Index != 0 {
		t.Fatalf("frame 2 signature = %+v ok=%v", sig, ok)
	}
	if sig, ok := f.FrameSignature(5); !ok || sig.Index != 1 {
		t.Fatalf("frame 5 signature = %+v ok=%v", sig, ok)
	}
	if _, ok := f.FrameSignature(3); ok {
		t.Error("untouched frame 3 has a signature")
	}
	if cfgd, total := f.Utilization(); cfgd != 2 || total != 8 {
		t.Errorf("Utilization = %d/%d", cfgd, total)
	}

	inst := new(Instance)
	if err := f.Activate(inst, []int{5, 2}); err != nil {
		t.Fatalf("Activate: %v", err)
	}
	out := make([]byte, 3)
	cyc, err := inst.Exec(out, []byte{1, 2, 3})
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if want := []byte{1 ^ 0x5A, 2 ^ 0x5A, 3 ^ 0x5A}; string(out) != string(want) {
		t.Errorf("Exec out = %v, want %v", out, want)
	}
	if cyc != 7 {
		t.Errorf("Exec cycles = %d, want 7", cyc)
	}
	if inst.Execs != 1 {
		t.Errorf("Execs = %d", inst.Execs)
	}
}

func TestPortCycleAccounting(t *testing.T) {
	f := testFabric(t)
	before := f.Port().cycles
	if before != 0 {
		t.Fatalf("fresh port cycles = %d", before)
	}
	loadFunction(t, f, 1)
	c := f.Port().TakeCycles()
	if c == 0 {
		t.Fatal("no cycles charged for configuration")
	}
	// One cycle per byte: at minimum the two frame payloads.
	min := uint64(2 * 4 * f.Geometry().FrameWords())
	if c < min {
		t.Errorf("cycles = %d, want >= %d", c, min)
	}
	if f.Port().cycles != 0 {
		t.Error("TakeCycles did not reset")
	}
}

func TestActivateRejectsWrongSets(t *testing.T) {
	f := testFabric(t)
	loadFunction(t, f, 1)

	cases := []struct {
		name   string
		frames []int
		want   error
	}{
		{"empty", nil, ErrNoFrames},
		{"subset", []int{2}, ErrIncomplete},
		{"empty frame", []int{2, 3}, ErrBadSignature},
		{"out of range", []int{2, 99}, ErrFrameAddress},
		{"duplicate", []int{2, 2}, ErrIncomplete},
	}
	for _, c := range cases {
		if err := f.Activate(new(Instance), c.frames); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

// TestActivateReusesInstance: the mini OS keeps one Instance per
// function and re-activates it on every load, so activation into an
// instance that already has room allocates nothing, records one write
// generation per frame in frame order (whatever order the frames were
// named in), and a failed activation leaves the instance as it was.
func TestActivateReusesInstance(t *testing.T) {
	f := testFabric(t)
	loadFunction(t, f, 1)
	inst := new(Instance)
	if err := f.Activate(inst, []int{5, 2}); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(50, func() {
		if err := f.Activate(inst, []int{5, 2}); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("re-activation allocates %.0f times, want 0", got)
	}
	// Frame 5 is written once more than frame 2, so the two frames'
	// generations differ: an instance that recorded them in naming order
	// but checks them in frame order would call itself stale at once.
	if err := f.ClearFrame(5); err != nil {
		t.Fatal(err)
	}
	loadFunction(t, f, 1)
	if err := f.Activate(inst, []int{5, 2}); err != nil {
		t.Fatal(err)
	}
	if !inst.Valid() {
		t.Fatal("freshly activated instance is not valid")
	}
	if err := f.ClearFrame(2); err != nil {
		t.Fatal(err)
	}
	if inst.Valid() {
		t.Error("instance valid after its frame 2 was cleared")
	}
	before := *inst
	if err := f.Activate(inst, []int{2, 5}); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("activation over a cleared frame: err = %v, want ErrBadSignature", err)
	}
	if inst.core != before.core || !slices.Equal(inst.frames, []int{2, 5}) || !slices.Equal(inst.gens, before.gens) {
		t.Error("a failed activation changed the instance")
	}
}

func TestActivateRejectsMixedSerials(t *testing.T) {
	f := testFabric(t)
	loadFunction(t, f, 1)
	// Overwrite only frame 2 with a newer serial; frame 5 is stale.
	g := f.Geometry()
	var s wordStream
	s.raw(SyncWord)
	s.reg(RegCMD, CmdRCRC)
	s.reg(RegIDCODE, f.IDCode())
	s.reg(RegFLR, uint32(g.FrameWords()))
	s.reg(RegCMD, CmdWCFG)
	s.reg(RegFAR, 2)
	s.reg(RegFDRI, frameImage(g, Signature{FnID: 7, Index: 0, Total: 2, Serial: 2}, 0xB0)...)
	s.reg(RegCMD, CmdLFRM)
	s.reg(RegCRC, s.crc)
	if _, err := f.Port().Write(s.bytes()); err != nil {
		t.Fatal(err)
	}
	if err := f.Activate(new(Instance), []int{2, 5}); !errors.Is(err, ErrMixedFrames) {
		t.Errorf("err = %v, want ErrMixedFrames", err)
	}
}

func TestExecAfterOverwriteFails(t *testing.T) {
	f := testFabric(t)
	loadFunction(t, f, 1)
	inst := new(Instance)
	if err := f.Activate(inst, []int{2, 5}); err != nil {
		t.Fatal(err)
	}
	if !inst.Valid() {
		t.Fatal("instance should be valid")
	}
	if err := f.ClearFrame(5); err != nil {
		t.Fatal(err)
	}
	if inst.Valid() {
		t.Error("instance still valid after frame clear")
	}
	if _, err := inst.Exec(make([]byte, 1), []byte{1}); !errors.Is(err, ErrOverwritten) {
		t.Errorf("Exec err = %v, want ErrOverwritten", err)
	}
}

// TestCrossDeviceBitstreamRejected: a bitstream built for a sibling
// part of the same family, whose IDCODE differs only in its low bits,
// must not configure this one.
func TestCrossDeviceBitstreamRejected(t *testing.T) {
	f := testFabric(t)
	var s wordStream
	s.raw(SyncWord)
	s.reg(RegCMD, CmdRCRC)
	s.reg(RegIDCODE, f.IDCode()^0x61)
	if _, err := f.Port().Write(s.bytes()); !errors.Is(err, ErrIDCODE) {
		t.Errorf("sibling part's bitstream: err = %v, want ErrIDCODE", err)
	}
}

func TestPortRejectsBadIDCode(t *testing.T) {
	f := testFabric(t)
	var s wordStream
	s.raw(SyncWord)
	s.reg(RegCMD, CmdRCRC)
	s.reg(RegIDCODE, 0xDEADBEEF)
	_, err := f.Port().Write(s.bytes())
	if !errors.Is(err, ErrIDCODE) {
		t.Fatalf("err = %v, want ErrIDCODE", err)
	}
	if f.Port().fault == nil {
		t.Error("fault not sticky")
	}
	// Further writes keep failing until Reset.
	if _, err := f.Port().Write([]byte{0, 0, 0, 0}); err == nil {
		t.Error("faulted port accepted data")
	}
	f.Port().Reset()
	if f.Port().fault != nil {
		t.Error("Reset did not clear fault")
	}
}

func TestPortRejectsFrameDataWithoutSetup(t *testing.T) {
	f := testFabric(t)
	g := f.Geometry()

	// FDRI before WCFG.
	var s wordStream
	s.raw(SyncWord)
	s.reg(RegCMD, CmdRCRC)
	s.reg(RegIDCODE, f.IDCode())
	s.reg(RegFDRI, frameImage(g, Signature{FnID: 7, Total: 1}, 1)...)
	if _, err := f.Port().Write(s.bytes()); !errors.Is(err, ErrNoWCFG) {
		t.Errorf("err = %v, want ErrNoWCFG", err)
	}

	// FDRI before IDCODE.
	f2 := testFabric(t)
	var s2 wordStream
	s2.raw(SyncWord)
	s2.reg(RegCMD, CmdRCRC)
	s2.reg(RegCMD, CmdWCFG)
	s2.reg(RegFDRI, frameImage(g, Signature{FnID: 7, Total: 1}, 1)...)
	if _, err := f2.Port().Write(s2.bytes()); !errors.Is(err, ErrNoIDCheck) {
		t.Errorf("err = %v, want ErrNoIDCheck", err)
	}
}

func TestPortCRCMismatchCorruptsSession(t *testing.T) {
	f := testFabric(t)
	g := f.Geometry()
	var s wordStream
	s.raw(SyncWord)
	s.reg(RegCMD, CmdRCRC)
	s.reg(RegIDCODE, f.IDCode())
	s.reg(RegFLR, uint32(g.FrameWords()))
	s.reg(RegCMD, CmdWCFG)
	s.reg(RegFAR, 1)
	s.reg(RegFDRI, frameImage(g, Signature{FnID: 7, Index: 0, Total: 1, Serial: 1}, 0xCC)...)
	s.reg(RegCMD, CmdLFRM)
	s.reg(RegCRC, s.crc^0xFFFF) // wrong CRC
	if _, err := f.Port().Write(s.bytes()); !errors.Is(err, ErrCRC) {
		t.Fatalf("err = %v, want ErrCRC", err)
	}
	// The frame was physically written, but its signature must now be
	// invalid so it can never activate.
	if _, ok := f.FrameSignature(1); ok {
		t.Error("frame from failed session still carries a valid signature")
	}
}

func TestPortRejectsBadFrameAddress(t *testing.T) {
	f := testFabric(t)
	var s wordStream
	s.raw(SyncWord)
	s.reg(RegCMD, CmdRCRC)
	s.reg(RegFAR, 999)
	if _, err := f.Port().Write(s.bytes()); !errors.Is(err, ErrFrameAddress) {
		t.Errorf("err = %v, want ErrFrameAddress", err)
	}
}

func TestPortRejectsBadFLR(t *testing.T) {
	f := testFabric(t)
	var s wordStream
	s.raw(SyncWord)
	s.reg(RegCMD, CmdRCRC)
	s.reg(RegFLR, 5)
	if _, err := f.Port().Write(s.bytes()); !errors.Is(err, ErrFrameLength) {
		t.Errorf("err = %v, want ErrFrameLength", err)
	}
}

func TestPortIgnoresPreSyncNoise(t *testing.T) {
	f := testFabric(t)
	noise := []byte{0x12, 0x34, 0x56, 0x78, 0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := f.Port().Write(noise); err != nil {
		t.Fatalf("pre-sync noise rejected: %v", err)
	}
	loadFunctionAfterNoise := func() {
		loadFunction(t, f, 3)
	}
	loadFunctionAfterNoise()
	if err := f.Activate(new(Instance), []int{2, 5}); err != nil {
		t.Errorf("activate after noisy sync: %v", err)
	}
}

func TestPortRejectsMalformedPackets(t *testing.T) {
	cases := []struct {
		name  string
		words []uint32
	}{
		{"type2", []uint32{SyncWord, 2 << 29}},
		{"read op", []uint32{SyncWord, MakeType1(OpRead, RegSTAT, 1)}},
		{"bad reg", []uint32{SyncWord, MakeType1(OpWrite, 31, 1), 0}},
		{"stat write", []uint32{SyncWord, MakeType1(OpWrite, RegSTAT, 1), 0}},
		{"bad cmd", []uint32{SyncWord, MakeType1(OpWrite, RegCMD, 1), 999}},
	}
	for _, c := range cases {
		f := testFabric(t)
		var s wordStream
		for _, w := range c.words {
			s.raw(w)
		}
		if _, err := f.Port().Write(s.bytes()); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestReadFrameAndClear(t *testing.T) {
	f := testFabric(t)
	loadFunction(t, f, 1)
	data, err := f.ReadFrame(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := DecodeSignature(data); !ok {
		t.Error("readback lost the signature")
	}
	// Readback is a copy: mutating it must not affect the fabric.
	data[0] ^= 0xFF
	if _, ok := f.FrameSignature(2); !ok {
		t.Error("mutating readback corrupted fabric state")
	}
	if _, err := f.ReadFrame(-1); err == nil {
		t.Error("ReadFrame(-1) accepted")
	}
	if err := f.ClearFrame(99); err == nil {
		t.Error("ClearFrame(99) accepted")
	}
}

func TestFramesWrittenCounter(t *testing.T) {
	f := testFabric(t)
	loadFunction(t, f, 1)
	if f.Port().FramesWritten != 2 {
		t.Errorf("FramesWritten = %d, want 2", f.Port().FramesWritten)
	}
}

// DecodeCLB parses one CLB from src, which must be at least CLBBytes long.
func DecodeCLB(src []byte) CLB {
	_ = src[CLBBytes-1]
	var c CLB
	off := 0
	for s := range c.Slices {
		for l := range c.Slices[s].LUTs {
			c.Slices[s].LUTs[l].Init = binary.LittleEndian.Uint16(src[off:])
			off += LUTBytes
		}
	}
	c.Flags = src[off]
	off++
	c.Switch = binary.LittleEndian.Uint32(src[off:])
	return c
}
