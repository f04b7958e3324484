package memory

import (
	"errors"
	"testing"
)

func builtROM(t *testing.T) *ROM {
	t.Helper()
	rom, err := NewROM(4096)
	if err != nil {
		t.Fatal(err)
	}
	for i, blob := range [][]byte{{1, 2, 3}, {4, 5}, {6, 7, 8, 9}} {
		rec := Record{Name: "fn", FnID: uint16(i + 1), CodecID: 1,
			RawSize: uint32(len(blob) * 2), InBus: 4, OutBus: 4, FrameCount: 2, Serial: 1}
		if err := rom.Install(rec, blob); err != nil {
			t.Fatal(err)
		}
	}
	return rom
}

func TestROMImageRoundTrip(t *testing.T) {
	rom := builtROM(t)
	img := rom.Image()
	got, err := LoadROM(img)
	if err != nil {
		t.Fatal(err)
	}
	if got.Capacity() != rom.Capacity() || got.NumRecords() != rom.NumRecords() ||
		got.FreeBytes() != rom.FreeBytes() {
		t.Fatal("geometry mismatch after reload")
	}
	for i := 0; i < rom.NumRecords(); i++ {
		a := rom.recs[i]
		b := got.recs[i]
		if a != b {
			t.Fatalf("record %d differs: %+v vs %+v", i, a, b)
		}
		blobA, _ := rom.Blob(a)
		blobB, _ := got.Blob(b)
		if string(blobA) != string(blobB) {
			t.Fatalf("blob %d differs", i)
		}
	}
	// A reloaded ROM keeps working: install another function.
	if err := got.Install(Record{Name: "x", FnID: 99}, []byte{0xAA}); err != nil {
		t.Fatal(err)
	}
	// The image is a copy: mutating it must not touch the source ROM.
	img[romHeaderBytes] ^= 0xFF
	if b, _ := rom.Blob(mustRec(t, rom, 1)); b[0] != 1 {
		t.Error("image aliased ROM memory")
	}
}

func mustRec(t *testing.T, r *ROM, fn uint16) Record {
	t.Helper()
	rec, _, err := r.FindByID(fn)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestLoadROMRejectsCorruption(t *testing.T) {
	rom := builtROM(t)
	good := rom.Image()

	mutate := func(name string, f func(img []byte) []byte) {
		t.Helper()
		img := append([]byte(nil), good...)
		img = f(img)
		if _, err := LoadROM(img); !errors.Is(err, ErrBadImage) {
			t.Errorf("%s: err = %v, want ErrBadImage", name, err)
		}
	}
	mutate("short", func(img []byte) []byte { return img[:10] })
	mutate("magic", func(img []byte) []byte { img[0] = 'X'; return img })
	mutate("truncated data", func(img []byte) []byte { return img[:len(img)-5] })
	mutate("record CRC", func(img []byte) []byte {
		img[len(img)-20] ^= 0xFF // inside the newest record
		return img
	})
	mutate("blob overrun", func(img []byte) []byte {
		// Blow up blobTop so record bounds checks fire... rather, shrink
		// blobTop below the blobs' extent.
		img[12] = 0
		img[13] = 0
		return img
	})
	mutate("count mismatch", func(img []byte) []byte { img[20] = 99; return img })
}

func TestLoadROMEmpty(t *testing.T) {
	rom, _ := NewROM(1024)
	got, err := LoadROM(rom.Image())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRecords() != 0 || got.FreeBytes() != 1024 {
		t.Error("empty ROM did not round trip")
	}
}
