package fpga

// The port moves word-aligned FDRI payload as bursts and everything else
// a word at a time. These tests hold the burst path to the word path:
// same CRC, same configuration memory and bookkeeping however the stream
// is chunked, same cycle charge.

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"testing"

	"agilefpga/internal/sim"
)

func TestCRCUpdateBurstMatchesWordByWord(t *testing.T) {
	rng := sim.NewRNG(0xC4C)
	for _, words := range []int{0, 1, 2, 15, 168, 0x7FF} {
		payload := make([]byte, 4*words)
		for i := range payload {
			payload[i] = byte(rng.Uint64())
		}
		reg := rng.Intn(numRegs)
		seed := uint32(rng.Uint64())
		want := seed
		for i := 0; i < words; i++ {
			b := append([]byte{byte(reg)}, payload[4*i:4*i+4]...)
			want = crc32.Update(want, crc32.IEEETable, b)
		}
		var scratch []byte
		if got := CRCUpdateBurst(seed, reg, payload, &scratch); got != want {
			t.Errorf("%d words: burst CRC %08x, word by word %08x", words, got, want)
		}
		// A trailing partial word is not the burst's to fold.
		if got := CRCUpdateBurst(seed, reg, append(payload, 1, 2, 3), &scratch); got != want {
			t.Errorf("%d words + 3 bytes: burst CRC %08x, want %08x", words, got, want)
		}
	}
}

// FuzzCRCCombine: a write's key folded by the shift operator for its
// length gives what summing the write's bytes gives, for any running CRC,
// register and length — the identity the keyed assembler rests on.
func FuzzCRCCombine(f *testing.F) {
	f.Add(uint64(1), uint32(0), 2, uint16(210)) // one 840-byte frame
	f.Add(uint64(2), uint32(0xFFFFFFFF), 1, uint16(1))
	f.Add(uint64(3), uint32(0xDEADBEEF), 9, uint16(0))
	f.Add(uint64(4), uint32(7), 0, uint16(0x7FF))
	f.Fuzz(func(t *testing.T, seed uint64, crc uint32, reg int, words uint16) {
		words %= 0x800 // the 11-bit packet word count
		rng := sim.NewRNG(seed)
		payload := make([]byte, 4*int(words))
		for i := range payload {
			payload[i] = byte(rng.Uint64())
		}
		var scratch []byte
		want := CRCUpdateBurst(crc, reg, payload, &scratch)
		s := NewCRCShift(int(words))
		if got := s.Fold(crc, CRCBurstKey(reg, payload, &scratch)); got != want {
			t.Fatalf("%d words, reg %d, crc %08x: folded key %08x, summed %08x", words, reg, crc, got, want)
		}
	})
}

// sessionStream is a complete partial-reconfiguration session loading
// function 7 into frames far, far+1 (one two-frame FDRI packet riding the
// FAR auto-increment) and last (its own packet).
func sessionStream(f *Fabric, serial uint16, far, last int) []byte {
	g := f.Geometry()
	var s wordStream
	s.raw(DummyWord)
	s.raw(SyncWord)
	s.reg(RegCMD, CmdRCRC)
	s.reg(RegIDCODE, f.IDCode())
	s.reg(RegFLR, uint32(g.FrameWords()))
	s.reg(RegCMD, CmdWCFG)
	s.reg(RegFAR, uint32(far))
	two := frameImage(g, Signature{FnID: 7, Index: 0, Total: 3, Serial: serial}, 0xA0)
	two = append(two, frameImage(g, Signature{FnID: 7, Index: 1, Total: 3, Serial: serial}, 0xA1)...)
	s.reg(RegFDRI, two...)
	s.reg(RegFAR, uint32(last))
	s.reg(RegFDRI, frameImage(g, Signature{FnID: 7, Index: 2, Total: 3, Serial: serial}, 0xA2)...)
	s.reg(RegCMD, CmdLFRM)
	s.reg(RegCRC, s.crc)
	s.reg(RegCMD, CmdDESYNC)
	return s.bytes()
}

// TestResetDropsFailedSessionCycles: a session that faulted must not
// leave its cycles in the port for the next session's TakeCycles to bill.
func TestResetDropsFailedSessionCycles(t *testing.T) {
	f := testFabric(t)
	good := sessionStream(f, 1, 2, 6)
	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 0x10 // frame payload: the closing CRC check fails
	if _, err := f.Port().Write(bad); err == nil {
		t.Fatal("corrupted stream accepted")
	}
	f.Port().Reset()
	if _, err := f.Port().Write(good); err != nil {
		t.Fatal(err)
	}
	if got := f.Port().TakeCycles(); got != uint64(len(good)) {
		t.Errorf("TakeCycles after a failed session + Reset = %d, want the good stream's %d bytes", got, len(good))
	}
}

// portState is everything a configuration session leaves behind.
func portState(f *Fabric) string {
	var b bytes.Buffer
	for i := 0; i < f.Geometry().NumFrames(); i++ {
		_, sigOK := f.FrameSignature(i)
		fmt.Fprintf(&b, "frame %d gen %d sig %v % x\n", i, f.Generation(i), sigOK, f.cfg[i])
	}
	p := f.Port()
	fmt.Fprintf(&b, "written %d cycles %d err %v\n", p.FramesWritten, p.cycles, p.fault)
	return b.String()
}

// FuzzPortChunking: a valid or bit-flipped session fed in arbitrary chunk
// sizes — which decides where the burst path can engage — must leave
// exactly what the same bytes leave when fed one at a time.
func FuzzPortChunking(f *testing.F) {
	f.Add(uint64(1), -1, false, uint16(4096))
	f.Add(uint64(2), -1, true, uint16(7))
	f.Add(uint64(3), 200, false, uint16(50))
	f.Add(uint64(4), 1500, true, uint16(3))
	f.Add(uint64(5), 37, true, uint16(1000)) // packet header hit
	f.Fuzz(func(t *testing.T, seed uint64, flip int, padded bool, maxChunk uint16) {
		g := Geometry{Rows: 4, Cols: 8} // 84-byte frames: word-aligned
		if padded {
			g.Rows = 3 // 63-byte frames: the final word is padded
		}
		fabrics := [2]*Fabric{}
		for i := range fabrics {
			reg := NewRegistry()
			if err := reg.Register(echoCore{7, "echo"}); err != nil {
				t.Fatal(err)
			}
			fabrics[i] = NewFabric(g, reg)
		}
		stream := sessionStream(fabrics[0], 9, 1, 6)
		if flip >= 0 {
			flip %= 8 * len(stream)
			stream[flip/8] ^= 1 << (flip % 8)
		}
		// The oracle: one byte per Write never forms a burst.
		for _, b := range stream {
			_, _ = fabrics[0].Port().Write([]byte{b})
		}
		rng := sim.NewRNG(seed)
		for rest := stream; len(rest) > 0; {
			n := 1 + rng.Intn(int(maxChunk)+1)
			if n > len(rest) {
				n = len(rest)
			}
			_, _ = fabrics[1].Port().Write(rest[:n])
			rest = rest[n:]
		}
		if want, got := portState(fabrics[0]), portState(fabrics[1]); got != want {
			t.Errorf("chunked write diverges from byte-at-a-time\nbytewise:\n%s\nchunked:\n%s", want, got)
		}
		if flip < 0 {
			if err := fabrics[1].Port().fault; err != nil {
				t.Fatalf("valid stream faulted: %v", err)
			}
			if err := fabrics[1].Activate(new(Instance), []int{1, 2, 6}); err != nil {
				t.Fatalf("valid stream does not activate: %v", err)
			}
		}
	})
}
