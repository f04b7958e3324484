package memory

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ROM image serialisation: the provisioning tool burns a card's ROM once
// and ships the image; LoadROM is what the card does at power-on. The
// format is a small header followed by the raw ROM contents (which embed
// the record table and blobs already).
//
//	magic   "AGLROM1\0"  (8 bytes)
//	cap     uint32       ROM capacity
//	blobTop uint32       first free byte above the bitstream region
//	recBot  uint32       lowest byte of the record table
//	count   uint32       number of records
//	data    cap bytes

var romMagic = [8]byte{'A', 'G', 'L', 'R', 'O', 'M', '1', 0}

const romHeaderBytes = 8 + 4*4

// ErrBadImage reports a malformed ROM image.
var ErrBadImage = errors.New("memory: bad ROM image")

// Image serialises the ROM.
func (r *ROM) Image() []byte {
	out := make([]byte, romHeaderBytes+len(r.data))
	copy(out, romMagic[:])
	binary.LittleEndian.PutUint32(out[8:], uint32(len(r.data)))
	binary.LittleEndian.PutUint32(out[12:], uint32(r.blobTop))
	binary.LittleEndian.PutUint32(out[16:], uint32(r.recBot))
	binary.LittleEndian.PutUint32(out[20:], uint32(len(r.recs)))
	copy(out[romHeaderBytes:], r.data)
	return out
}

// LoadROM reconstructs a ROM from an image, verifying the header, the
// region layout, and every record (including CRCs and blob bounds).
func LoadROM(image []byte) (*ROM, error) {
	if len(image) < romHeaderBytes {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadImage, len(image))
	}
	var magic [8]byte
	copy(magic[:], image)
	if magic != romMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadImage)
	}
	capacity := int(binary.LittleEndian.Uint32(image[8:]))
	blobTop := int(binary.LittleEndian.Uint32(image[12:]))
	recBot := int(binary.LittleEndian.Uint32(image[16:]))
	count := int(binary.LittleEndian.Uint32(image[20:]))
	if len(image) != romHeaderBytes+capacity {
		return nil, fmt.Errorf("%w: header says %d data bytes, image carries %d",
			ErrBadImage, capacity, len(image)-romHeaderBytes)
	}
	if capacity < RecordBytes || blobTop < 0 || recBot > capacity || blobTop > recBot {
		return nil, fmt.Errorf("%w: layout blobTop=%d recBot=%d cap=%d", ErrBadImage, blobTop, recBot, capacity)
	}
	if count*RecordBytes != capacity-recBot {
		return nil, fmt.Errorf("%w: %d records do not fill the table region", ErrBadImage, count)
	}
	rom := &ROM{
		data:    append([]byte(nil), image[romHeaderBytes:]...),
		blobTop: blobTop,
		recBot:  recBot,
		recs:    make([]Record, 0, count),
		slot:    make(map[uint16]int, count),
	}
	// Validate every record — CRC, blob bounds, unique ids — as it joins
	// the decoded table.
	for i := 0; i < count; i++ {
		rec, err := decodeRecord(rom.data[capacity-(i+1)*RecordBytes:])
		if err != nil {
			return nil, fmt.Errorf("%w: record %d: %v", ErrBadImage, i, err)
		}
		if int(rec.Start)+int(rec.CompSize) > blobTop {
			return nil, fmt.Errorf("%w: record %d blob [%d, %d) beyond blob region %d",
				ErrBadImage, i, rec.Start, rec.Start+rec.CompSize, blobTop)
		}
		if _, dup := rom.slot[rec.FnID]; dup {
			return nil, fmt.Errorf("%w: duplicate function id %d", ErrBadImage, rec.FnID)
		}
		rom.add(rec)
	}
	return rom, nil
}
