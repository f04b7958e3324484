// Package memory models the co-processor's on-board storage: the ROM
// holding compressed configuration bitstreams and the function record
// table (paper §2.2), and the local RAM staging function inputs and
// outputs (paper §2.3).
//
// The ROM follows the paper's two-ended layout exactly: compressed
// bitstreams are appended from the bottom of the address space while the
// record table grows down from the top; the device is full when the two
// regions would collide. Records are genuinely serialised into the ROM
// bytes — the microcontroller reads them back through the same address
// space it reads bitstreams from.
package memory

import (
	"encoding/binary"
	"errors"
	"fmt"

	"agilefpga/internal/crc16"
)

// Record is one function entry in the ROM record table: where the
// compressed bitstream lives, how big it is compressed and raw, which
// codec it uses, the function's I/O bus widths and frame demand — the
// fields the paper's §2.2 record holds, plus what the mini OS needs for
// placement.
type Record struct {
	Name       string // up to 16 bytes
	FnID       uint16
	CodecID    byte
	Start      uint32 // byte offset of the compressed bitstream in ROM
	CompSize   uint32
	RawSize    uint32
	InBus      uint16 // input bus width in bytes; transfers are multiples of it
	OutBus     uint16 // output bus width in bytes
	FrameCount uint16 // frames the function occupies on the fabric
	Serial     uint16 // bitstream build serial
}

// RecordBytes is the on-ROM footprint of one serialised record.
const RecordBytes = 48

const recNameBytes = 16

// encode serialises the record into dst (RecordBytes long).
func (r *Record) encode(dst []byte) error {
	if len(r.Name) > recNameBytes {
		return fmt.Errorf("memory: record name %q exceeds %d bytes", r.Name, recNameBytes)
	}
	for i := range dst[:RecordBytes] {
		dst[i] = 0
	}
	copy(dst, r.Name)
	binary.LittleEndian.PutUint16(dst[16:], r.FnID)
	dst[18] = r.CodecID
	binary.LittleEndian.PutUint32(dst[20:], r.Start)
	binary.LittleEndian.PutUint32(dst[24:], r.CompSize)
	binary.LittleEndian.PutUint32(dst[28:], r.RawSize)
	binary.LittleEndian.PutUint16(dst[32:], r.InBus)
	binary.LittleEndian.PutUint16(dst[34:], r.OutBus)
	binary.LittleEndian.PutUint16(dst[36:], r.FrameCount)
	binary.LittleEndian.PutUint16(dst[38:], r.Serial)
	binary.LittleEndian.PutUint16(dst[46:], crc16.Checksum(dst[:46]))
	return nil
}

// decodeRecord parses a serialised record, verifying its CRC.
func decodeRecord(src []byte) (Record, error) {
	if len(src) < RecordBytes {
		return Record{}, errors.New("memory: short record")
	}
	if binary.LittleEndian.Uint16(src[46:]) != crc16.Checksum(src[:46]) {
		return Record{}, errors.New("memory: record CRC mismatch")
	}
	name := src[:recNameBytes]
	end := 0
	for end < len(name) && name[end] != 0 {
		end++
	}
	return Record{
		Name:       string(name[:end]),
		FnID:       binary.LittleEndian.Uint16(src[16:]),
		CodecID:    src[18],
		Start:      binary.LittleEndian.Uint32(src[20:]),
		CompSize:   binary.LittleEndian.Uint32(src[24:]),
		RawSize:    binary.LittleEndian.Uint32(src[28:]),
		InBus:      binary.LittleEndian.Uint16(src[32:]),
		OutBus:     binary.LittleEndian.Uint16(src[34:]),
		FrameCount: binary.LittleEndian.Uint16(src[36:]),
		Serial:     binary.LittleEndian.Uint16(src[38:]),
	}, nil
}

// ROM errors.
var (
	ErrROMFull   = errors.New("memory: ROM full (bitstream and record regions collided)")
	ErrNoRecord  = errors.New("memory: no such function record")
	ErrROMBounds = errors.New("memory: ROM access out of bounds")
	ErrDupFnID   = errors.New("memory: duplicate function id in ROM")
)

// ROMBytesPerCycle is the ROM read port width: a 16-bit flash interface
// delivers 2 bytes per microcontroller cycle.
const ROMBytesPerCycle = 2

// ROM is the two-ended configuration store.
type ROM struct {
	data    []byte
	blobTop int // first free byte above the bitstream region (grows up)
	recBot  int // lowest byte of the record table (grows down)

	// recs is the record table decoded, in slot order (installation
	// order), and slot indexes it by function id. The record bytes are
	// written only by Install and LoadROM, and both decode — so
	// CRC-check — what they hold, so lookups read these and never the
	// bytes.
	recs []Record
	slot map[uint16]int
}

// NewROM returns a ROM of the given capacity.
func NewROM(capacity int) (*ROM, error) {
	if capacity < RecordBytes {
		return nil, fmt.Errorf("memory: ROM capacity %d below one record", capacity)
	}
	return &ROM{data: make([]byte, capacity), recBot: capacity, slot: make(map[uint16]int)}, nil
}

// Capacity reports the ROM size in bytes.
func (r *ROM) Capacity() int { return len(r.data) }

// FreeBytes reports the unused gap between the two regions.
func (r *ROM) FreeBytes() int { return r.recBot - r.blobTop }

// NumRecords reports how many function records the table holds.
func (r *ROM) NumRecords() int { return len(r.recs) }

// Install appends a compressed bitstream to the blob region and its
// record to the table. The Start field of rec is filled in by the ROM.
// Install fails with ErrROMFull if the regions would collide, leaving the
// ROM unchanged.
func (r *ROM) Install(rec Record, blob []byte) error {
	if rec.CompSize != 0 && int(rec.CompSize) != len(blob) {
		return fmt.Errorf("memory: record CompSize %d != blob %d", rec.CompSize, len(blob))
	}
	if _, dup := r.slot[rec.FnID]; dup {
		return fmt.Errorf("%w: %d (%s)", ErrDupFnID, rec.FnID, rec.Name)
	}
	need := len(blob) + RecordBytes
	if r.FreeBytes() < need {
		return fmt.Errorf("%w: need %d bytes, %d free", ErrROMFull, need, r.FreeBytes())
	}
	rec.Start = uint32(r.blobTop)
	rec.CompSize = uint32(len(blob))
	off := r.recBot - RecordBytes
	if err := rec.encode(r.data[off:]); err != nil {
		return err
	}
	// The table holds what the bytes say, not what was asked for: a name
	// with a NUL in it reads back cut short there.
	stored, err := decodeRecord(r.data[off:])
	if err != nil {
		return err
	}
	copy(r.data[r.blobTop:], blob)
	r.blobTop += len(blob)
	r.recBot = off
	r.add(stored)
	return nil
}

// add appends a decoded record to the table and the id index.
func (r *ROM) add(rec Record) {
	r.slot[rec.FnID] = len(r.recs)
	r.recs = append(r.recs, rec)
}

// Records returns all records in installation order.
func (r *ROM) Records() []Record {
	return append([]Record(nil), r.recs...)
}

// FindByID locates the record of function fnID and its slot, the number
// of records installed before it: a scan of the table from the first
// record touches slot+1 records to find it.
func (r *ROM) FindByID(fnID uint16) (Record, int, error) {
	slot, ok := r.slot[fnID]
	if !ok {
		return Record{}, 0, fmt.Errorf("%w: id %d", ErrNoRecord, fnID)
	}
	return r.recs[slot], slot, nil
}

// ReadAt copies n bytes starting at off into a fresh slice.
func (r *ROM) ReadAt(off, n int) ([]byte, error) {
	if off < 0 || n < 0 || off+n > len(r.data) {
		return nil, fmt.Errorf("%w: [%d, %d)", ErrROMBounds, off, off+n)
	}
	out := make([]byte, n)
	copy(out, r.data[off:])
	return out, nil
}

// Blob returns the compressed bitstream of rec.
func (r *ROM) Blob(rec Record) ([]byte, error) {
	return r.ReadAt(int(rec.Start), int(rec.CompSize))
}

// ReadCycles reports microcontroller cycles to read n bytes from ROM.
func ReadCycles(n int) uint64 {
	return uint64((n + ROMBytesPerCycle - 1) / ROMBytesPerCycle)
}
