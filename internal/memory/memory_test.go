package memory

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestRecordRoundTrip(t *testing.T) {
	f := func(fnID, inBus, outBus, frames, serial uint16, codec byte, comp, raw uint32) bool {
		rec := Record{
			Name: "aes128", FnID: fnID, CodecID: codec,
			CompSize: comp, RawSize: raw,
			InBus: inBus, OutBus: outBus, FrameCount: frames, Serial: serial,
		}
		var buf [RecordBytes]byte
		if err := rec.encode(buf[:]); err != nil {
			return false
		}
		got, err := decodeRecord(buf[:])
		if err != nil {
			return false
		}
		rec.Start = got.Start // Start is assigned by the ROM
		return got == rec
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRecordNameTooLong(t *testing.T) {
	rec := Record{Name: "a-name-that-is-way-too-long-for-a-record"}
	var buf [RecordBytes]byte
	if err := rec.encode(buf[:]); err == nil {
		t.Error("oversized name accepted")
	}
}

func TestRecordCRCDetectsCorruption(t *testing.T) {
	rec := Record{Name: "crc32", FnID: 4, CompSize: 100}
	var buf [RecordBytes]byte
	if err := rec.encode(buf[:]); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < RecordBytes; i++ {
		mut := buf
		mut[i] ^= 1
		if i >= 40 && i < 46 {
			continue // reserved bytes are not covered
		}
		if _, err := decodeRecord(mut[:]); err == nil && i < 40 {
			t.Errorf("corrupted byte %d undetected", i)
		}
	}
	if _, err := decodeRecord(buf[:10]); err == nil {
		t.Error("short record accepted")
	}
}

func TestROMTwoEndedLayout(t *testing.T) {
	rom, err := NewROM(1024)
	if err != nil {
		t.Fatal(err)
	}
	blobA := []byte("AAAAAAAAAA")
	blobB := []byte("BBBBB")
	if err := rom.Install(Record{Name: "a", FnID: 1}, blobA); err != nil {
		t.Fatal(err)
	}
	if err := rom.Install(Record{Name: "b", FnID: 2}, blobB); err != nil {
		t.Fatal(err)
	}
	recA, _, err := rom.FindByID(1)
	if err != nil {
		t.Fatal(err)
	}
	recB, _, err := rom.FindByID(2)
	if err != nil {
		t.Fatal(err)
	}
	// Blobs grow from the bottom.
	if recA.Start != 0 {
		t.Errorf("first blob at %d, want 0", recA.Start)
	}
	if recB.Start != uint32(len(blobA)) {
		t.Errorf("second blob at %d, want %d", recB.Start, len(blobA))
	}
	// Records grow from the top.
	if rom.NumRecords() != 2 {
		t.Errorf("NumRecords = %d", rom.NumRecords())
	}
	gotA, err := rom.Blob(recA)
	if err != nil || string(gotA) != string(blobA) {
		t.Errorf("blob A readback %q, err %v", gotA, err)
	}
	gotB, _ := rom.Blob(recB)
	if string(gotB) != string(blobB) {
		t.Errorf("blob B readback %q", gotB)
	}
	if rom.FreeBytes() != 1024-len(blobA)-len(blobB)-2*RecordBytes {
		t.Errorf("FreeBytes = %d", rom.FreeBytes())
	}
}

func TestROMFull(t *testing.T) {
	rom, err := NewROM(RecordBytes + 20)
	if err != nil {
		t.Fatal(err)
	}
	// Fits exactly: blob of 20 plus one record.
	if err := rom.Install(Record{Name: "x", FnID: 1}, make([]byte, 20)); err != nil {
		t.Fatalf("exact fit rejected: %v", err)
	}
	if rom.FreeBytes() != 0 {
		t.Errorf("FreeBytes = %d, want 0", rom.FreeBytes())
	}
	// Anything more collides.
	if err := rom.Install(Record{Name: "y", FnID: 2}, nil); !errors.Is(err, ErrROMFull) {
		t.Errorf("err = %v, want ErrROMFull", err)
	}
	// Failed install leaves the ROM unchanged.
	if rom.NumRecords() != 1 {
		t.Errorf("failed install changed record count")
	}
}

func TestROMDuplicateID(t *testing.T) {
	rom, _ := NewROM(4096)
	if err := rom.Install(Record{Name: "a", FnID: 7}, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := rom.Install(Record{Name: "b", FnID: 7}, []byte{2}); !errors.Is(err, ErrDupFnID) {
		t.Errorf("err = %v, want ErrDupFnID", err)
	}
}

func TestROMLookupFailures(t *testing.T) {
	rom, _ := NewROM(4096)
	if _, _, err := rom.FindByID(9); !errors.Is(err, ErrNoRecord) {
		t.Errorf("FindByID on empty: %v", err)
	}
}

func TestROMRecordsInInstallOrder(t *testing.T) {
	rom, _ := NewROM(4096)
	_ = rom.Install(Record{Name: "sha256", FnID: 1}, []byte{1, 2})
	_ = rom.Install(Record{Name: "des", FnID: 2}, []byte{3})
	if recs := rom.Records(); len(recs) != 2 || recs[0].Name != "sha256" {
		t.Errorf("Records() = %+v", recs)
	}
}

func TestROMReadAtBounds(t *testing.T) {
	rom, _ := NewROM(100)
	if _, err := rom.ReadAt(90, 20); !errors.Is(err, ErrROMBounds) {
		t.Errorf("overread: %v", err)
	}
	if _, err := rom.ReadAt(-1, 2); !errors.Is(err, ErrROMBounds) {
		t.Errorf("negative offset: %v", err)
	}
	if _, err := rom.ReadAt(0, -2); !errors.Is(err, ErrROMBounds) {
		t.Errorf("negative length: %v", err)
	}
}

func TestROMCompSizeMismatch(t *testing.T) {
	rom, _ := NewROM(4096)
	err := rom.Install(Record{Name: "x", FnID: 1, CompSize: 5}, make([]byte, 10))
	if err == nil {
		t.Error("CompSize mismatch accepted")
	}
}

func TestNewROMTooSmall(t *testing.T) {
	if _, err := NewROM(10); err == nil {
		t.Error("tiny ROM accepted")
	}
}

func TestReadCycles(t *testing.T) {
	cases := []struct {
		n    int
		want uint64
	}{{0, 0}, {1, 1}, {2, 1}, {3, 2}, {100, 50}}
	for _, c := range cases {
		if got := ReadCycles(c.n); got != c.want {
			t.Errorf("ReadCycles(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestRAMReadWrite(t *testing.T) {
	ram, err := NewRAM(256)
	if err != nil {
		t.Fatal(err)
	}
	if ram.Capacity() != 256 {
		t.Errorf("Capacity = %d", ram.Capacity())
	}
	if err := ram.Write(10, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 5)
	if err := ram.Read(10, got); err != nil || string(got) != "hello" {
		t.Errorf("Read = %q, %v", got, err)
	}
	// Readback is a copy.
	got[0] = 'X'
	got2 := make([]byte, 5)
	ram.Read(10, got2)
	if string(got2) != "hello" {
		t.Error("Read returned aliased memory")
	}
	// A view aliases: it sees the next write, and cannot be appended
	// past its end into the rest of RAM.
	view, err := ram.View(10, 5)
	if err != nil || string(view) != "hello" {
		t.Fatalf("View = %q, %v", view, err)
	}
	ram.Write(10, []byte("j"))
	if string(view) != "jello" {
		t.Errorf("View = %q after a write, want the aliased %q", view, "jello")
	}
	if cap(view) != 5 {
		t.Errorf("View capacity %d, want 5", cap(view))
	}
}

func TestRAMBounds(t *testing.T) {
	ram, _ := NewRAM(16)
	if err := ram.Write(10, make([]byte, 10)); !errors.Is(err, ErrRAMBounds) {
		t.Errorf("overwrite: %v", err)
	}
	if err := ram.Write(-1, []byte{1}); !errors.Is(err, ErrRAMBounds) {
		t.Errorf("negative write: %v", err)
	}
	if err := ram.Read(12, make([]byte, 10)); !errors.Is(err, ErrRAMBounds) {
		t.Errorf("overread: %v", err)
	}
	if _, err := ram.View(12, 10); !errors.Is(err, ErrRAMBounds) {
		t.Errorf("overlong view: %v", err)
	}
	if _, err := ram.View(0, -1); !errors.Is(err, ErrRAMBounds) {
		t.Errorf("negative view: %v", err)
	}
	if _, err := NewRAM(0); err == nil {
		t.Error("zero-capacity RAM accepted")
	}
}

func TestROMManyRecordsProperty(t *testing.T) {
	// Installing k functions then reading them all back preserves every
	// field and never overlaps blobs.
	f := func(seed uint8) bool {
		rom, err := NewROM(64 * 1024)
		if err != nil {
			return false
		}
		k := int(seed%20) + 1
		blobs := make([][]byte, k)
		for i := 0; i < k; i++ {
			blob := make([]byte, (i*37)%300+1)
			for j := range blob {
				blob[j] = byte(i)
			}
			blobs[i] = blob
			rec := Record{
				Name: "fn", FnID: uint16(i), CodecID: byte(i % 5),
				RawSize: uint32(len(blob) * 3), InBus: 8, OutBus: 4,
				FrameCount: uint16(i%6 + 1), Serial: uint16(i),
			}
			if err := rom.Install(rec, blob); err != nil {
				return false
			}
		}
		for i := 0; i < k; i++ {
			rec, _, err := rom.FindByID(uint16(i))
			if err != nil {
				return false
			}
			got, err := rom.Blob(rec)
			if err != nil || string(got) != string(blobs[i]) {
				return false
			}
			if rec.FrameCount != uint16(i%6+1) || rec.RawSize != uint32(len(blobs[i])*3) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
