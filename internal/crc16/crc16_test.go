package crc16

import (
	"math/rand"
	"testing"
)

// bitSerial is the reference: the byte-at-a-time, bit-at-a-time loop the
// ROM and the frame signatures each carried before the table.
func bitSerial(p []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range p {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

func TestChecksumMatchesBitSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		p := make([]byte, rng.Intn(65))
		rng.Read(p)
		if got, want := Checksum(p), bitSerial(p); got != want {
			t.Fatalf("Checksum(% x) = %#04x, bit-serial %#04x", p, got, want)
		}
	}
}

// TestCheckValue pins the catalogued CRC-16/CCITT-FALSE check value.
func TestCheckValue(t *testing.T) {
	if got := Checksum([]byte("123456789")); got != 0x29B1 {
		t.Errorf(`Checksum("123456789") = %#04x, want 0x29b1`, got)
	}
	if got := Checksum(nil); got != 0xFFFF {
		t.Errorf("Checksum(nil) = %#04x, want the initial value 0xffff", got)
	}
}
