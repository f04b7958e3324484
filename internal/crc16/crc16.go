// Package crc16 is the card's one CRC-16: CRC-16/CCITT-FALSE (polynomial
// 0x1021, initial value 0xFFFF, no reflection, no final XOR). The ROM
// record table and the in-fabric frame signatures are both checked with
// it.
package crc16

// table[b] is the CRC register after shifting byte b through a zero
// register: one lookup replaces the eight conditional shifts per byte.
var table = func() (t [256]uint16) {
	for b := range t {
		crc := uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
		t[b] = crc
	}
	return t
}()

// Checksum returns the CRC-16/CCITT-FALSE of p.
func Checksum(p []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range p {
		crc = crc<<8 ^ table[byte(crc>>8)^b]
	}
	return crc
}
