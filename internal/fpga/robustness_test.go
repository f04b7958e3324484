package fpga

// Robustness: the configuration port faces whatever the host streams at
// it. Random byte soup must never panic, never corrupt frames silently,
// and always leave the port in a recoverable state.

import (
	"testing"

	"agilefpga/internal/sim"
)

func TestPortSurvivesRandomBytes(t *testing.T) {
	rng := sim.NewRNG(0xF0CC)
	for trial := 0; trial < 200; trial++ {
		f := testFabric(t)
		n := rng.Intn(2048) + 4
		junk := make([]byte, n)
		for i := range junk {
			junk[i] = byte(rng.Uint64())
		}
		// Must not panic; error or silence are both acceptable.
		_, _ = f.Port().Write(junk)
		// Whatever happened, no frame may carry a *valid* signature for
		// an unknown function that could activate.
		for i := 0; i < f.Geometry().NumFrames(); i++ {
			if sig, ok := f.FrameSignature(i); ok {
				// A valid signature from random bytes is a 2^-16 CRC
				// fluke at best; activation must still fail safe.
				if err := f.Activate(new(Instance), []int{i}); err == nil && sig.Total == 1 {
					t.Fatalf("trial %d: random bytes produced an activatable frame", trial)
				}
			}
		}
		// The port must recover after a reset.
		f.Port().Reset()
		if f.Port().fault != nil {
			t.Fatalf("trial %d: reset did not clear fault", trial)
		}
		loadFunction(t, f, uint16(trial+1))
		if err := f.Activate(new(Instance), []int{2, 5}); err != nil {
			t.Fatalf("trial %d: port unusable after junk + reset: %v", trial, err)
		}
	}
}

func TestPortSurvivesRandomPacketStreams(t *testing.T) {
	// Syntactically valid packet headers with random registers/payloads:
	// a sharper fuzz than raw bytes because it reaches the register FSM.
	rng := sim.NewRNG(0xBEEF)
	for trial := 0; trial < 200; trial++ {
		f := testFabric(t)
		var s wordStream
		s.raw(SyncWord)
		packets := rng.Intn(20) + 1
		for p := 0; p < packets; p++ {
			reg := rng.Intn(12) // includes out-of-range registers
			count := rng.Intn(4)
			s.raw(MakeType1(OpWrite, reg, count))
			for w := 0; w < count; w++ {
				s.raw(uint32(rng.Uint64()))
			}
		}
		_, _ = f.Port().Write(s.bytes())
		f.Port().Reset()
		// Port must still work.
		loadFunction(t, f, uint16(trial+1))
	}
}

func TestWriteAfterDesync(t *testing.T) {
	f := testFabric(t)
	loadFunction(t, f, 1) // ends with DESYNC
	// Post-desync bytes are scanned, not parsed: no fault.
	if _, err := f.Port().Write([]byte{0xDE, 0xAD, 0xBE, 0xEF}); err != nil {
		t.Fatalf("post-desync scan failed: %v", err)
	}
	// A second session works without an explicit Reset.
	loadFunction(t, f, 2)
	if err := f.Activate(new(Instance), []int{2, 5}); err != nil {
		t.Fatal(err)
	}
}

func TestPartialWordBuffering(t *testing.T) {
	// Bytes may arrive in any chunking; the port must assemble words
	// identically. Load a function one byte at a time.
	f := testFabric(t)
	g := f.Geometry()
	var s wordStream
	s.raw(SyncWord)
	s.reg(RegCMD, CmdRCRC)
	s.reg(RegIDCODE, f.IDCode())
	s.reg(RegFLR, uint32(g.FrameWords()))
	s.reg(RegCMD, CmdWCFG)
	s.reg(RegFAR, 1)
	s.reg(RegFDRI, frameImage(g, Signature{FnID: 7, Index: 0, Total: 1, Serial: 3}, 0x5A)...)
	s.reg(RegCMD, CmdLFRM)
	s.reg(RegCRC, s.crc)
	stream := s.bytes()
	for _, b := range stream {
		if _, err := f.Port().Write([]byte{b}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Activate(new(Instance), []int{1}); err != nil {
		t.Fatalf("byte-at-a-time load failed: %v", err)
	}
}
