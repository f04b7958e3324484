package memory

import (
	"errors"
	"math/rand"
	"testing"
)

// scanRecord is the oracle for the decoded table: the lookup as it ran
// before the table was decoded once — walk the slots from the first
// installed, decoding (and CRC-checking) each, counting those touched.
func scanRecord(r *ROM, fnID uint16) (Record, int, error) {
	n := r.NumRecords()
	for i := 0; i < n; i++ {
		rec, err := decodeRecord(r.data[len(r.data)-(i+1)*RecordBytes:])
		if err != nil {
			return Record{}, i + 1, err
		}
		if rec.FnID == fnID {
			return rec, i + 1, nil
		}
	}
	return Record{}, n, ErrNoRecord
}

// checkIndex compares every read of the decoded table with the bytes.
func checkIndex(t *testing.T, r *ROM, maxID int) {
	t.Helper()
	for i := 0; i < r.NumRecords(); i++ {
		want, err := decodeRecord(r.data[len(r.data)-(i+1)*RecordBytes:])
		if err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
		if got := r.recs[i]; got != want {
			t.Fatalf("record %d = %+v; slot bytes decode to %+v", i, got, want)
		}
	}
	for id := 0; id <= maxID+2; id++ {
		want, scanned, werr := scanRecord(r, uint16(id))
		rec, slot, ferr := r.FindByID(uint16(id))
		if (ferr == nil) != (werr == nil) {
			t.Fatalf("id %d: FindByID err=%v, scan err=%v", id, ferr, werr)
		}
		if ferr != nil {
			if !errors.Is(ferr, ErrNoRecord) {
				t.Fatalf("id %d: FindByID err = %v, want ErrNoRecord", id, ferr)
			}
			if scanned != r.NumRecords() {
				t.Fatalf("id %d: a miss scanned %d of %d records", id, scanned, r.NumRecords())
			}
			continue
		}
		if rec != want || slot+1 != scanned {
			t.Fatalf("id %d: FindByID = %+v slot %d; scan = %+v after %d records", id, rec, slot, want, scanned)
		}
	}
}

// TestRecordIndexMatchesScan drives random install sequences — duplicate
// ids and ROM-full rejections included — and checks the decoded table and
// its id index against a scan of the record bytes, before and after an
// image round trip.
func TestRecordIndexMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	// The NUL name reads back cut short; the table must hold that, not
	// what Install was asked for.
	names := []string{"aes128", "sha256", "x", "", "sixteen-bytes-ok", "nul\x00tail"}
	for trial := 0; trial < 200; trial++ {
		rom, err := NewROM(RecordBytes + rng.Intn(1500))
		if err != nil {
			t.Fatal(err)
		}
		maxID := rng.Intn(20) + 1
		for op := 0; op < 30; op++ {
			rec := Record{
				Name: names[rng.Intn(len(names))], FnID: uint16(rng.Intn(maxID)),
				CodecID: byte(rng.Intn(5)), RawSize: uint32(rng.Intn(4096)),
				InBus: 4, OutBus: 4, FrameCount: uint16(rng.Intn(8) + 1), Serial: uint16(op),
			}
			blob := make([]byte, rng.Intn(120))
			_, _, dupErr := scanRecord(rom, rec.FnID)
			full := rom.FreeBytes() < len(blob)+RecordBytes
			n := rom.NumRecords()
			err := rom.Install(rec, blob)
			switch {
			case dupErr == nil:
				if !errors.Is(err, ErrDupFnID) {
					t.Fatalf("duplicate id %d: err = %v", rec.FnID, err)
				}
			case full:
				if !errors.Is(err, ErrROMFull) {
					t.Fatalf("install into a full ROM: err = %v", err)
				}
			case err != nil:
				t.Fatalf("install id %d: %v", rec.FnID, err)
			}
			want := n
			if err == nil {
				want++
			}
			if rom.NumRecords() != want {
				t.Fatalf("NumRecords = %d after install (err %v), want %d", rom.NumRecords(), err, want)
			}
		}
		checkIndex(t, rom, maxID)
		reloaded, err := LoadROM(rom.Image())
		if err != nil {
			t.Fatal(err)
		}
		checkIndex(t, reloaded, maxID)
		for i := 0; i < rom.NumRecords(); i++ {
			a := rom.recs[i]
			b := reloaded.recs[i]
			if a != b {
				t.Fatalf("record %d differs after reload: %+v vs %+v", i, a, b)
			}
		}
	}
}
