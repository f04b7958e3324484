package pci

import (
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"
)

// memDevice is a simple two-BAR target: BAR0 16-byte registers, BAR1
// 1 KiB memory.
type memDevice struct {
	bar0 [16]byte
	bar1 [1024]byte
}

func (d *memDevice) BARSize(bar int) uint32 {
	switch bar {
	case 0:
		return uint32(len(d.bar0))
	case 1:
		return uint32(len(d.bar1))
	}
	return 0
}

func (d *memDevice) region(bar int) []byte {
	if bar == 0 {
		return d.bar0[:]
	}
	return d.bar1[:]
}

func (d *memDevice) ReadBAR(bar int, off uint32, p []byte) error {
	copy(p, d.region(bar)[off:])
	return nil
}

func (d *memDevice) WriteBAR(bar int, off uint32, p []byte) error {
	copy(d.region(bar)[off:], p)
	return nil
}

func newBus(t *testing.T) (*Bus, *memDevice) {
	t.Helper()
	b := NewBus()
	d := &memDevice{}
	err := b.Attach(3, d)
	if err != nil {
		t.Fatal(err)
	}
	return b, d
}

func TestAttachErrors(t *testing.T) {
	b, _ := newBus(t)
	if err := b.Attach(3, &memDevice{}); !errors.Is(err, ErrSlotUsed) {
		t.Errorf("double attach: %v", err)
	}
	if err := b.Attach(4, nil); err == nil {
		t.Error("nil device accepted")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	b, _ := newBus(t)
	data := make([]byte, 300)
	for i := range data {
		data[i] = byte(i)
	}
	wcyc, err := b.Write(3, 1, 100, data)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	rcyc, err := b.Read(3, 1, 100, got)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Error("readback mismatch")
	}
	if wcyc != rcyc {
		t.Errorf("asymmetric cycles: write %d read %d", wcyc, rcyc)
	}
	if want := TransferCycles(300); wcyc != want {
		t.Errorf("cycles = %d, want %d", wcyc, want)
	}
}

func TestTransferCycles(t *testing.T) {
	if TransferCycles(0) != 0 {
		t.Error("zero-byte transfer should cost nothing")
	}
	// 4 bytes: one burst of 1 word + 5 overhead.
	if got := TransferCycles(4); got != 6 {
		t.Errorf("TransferCycles(4) = %d, want 6", got)
	}
	// One full burst: 64 words + 5.
	if got := TransferCycles(256); got != 69 {
		t.Errorf("TransferCycles(256) = %d, want 69", got)
	}
	// Two bursts.
	if got := TransferCycles(257); got != 69+6 {
		t.Errorf("TransferCycles(257) = %d, want %d", got, 69+6)
	}
	// Per-byte efficiency improves with size (burst amortisation).
	small := float64(TransferCycles(8)) / 8
	big := float64(TransferCycles(4096)) / 4096
	if big >= small {
		t.Errorf("no burst amortisation: %f vs %f", big, small)
	}
}

func TestTransferCyclesMonotonic(t *testing.T) {
	f := func(a, b uint16) bool {
		x, y := int(a)%10000, int(b)%10000
		if x > y {
			x, y = y, x
		}
		return TransferCycles(x) <= TransferCycles(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAccessErrors(t *testing.T) {
	b, _ := newBus(t)
	if _, err := b.Read(5, 0, 0, make([]byte, 4)); !errors.Is(err, ErrNoDevice) {
		t.Errorf("missing slot: %v", err)
	}
	if _, err := b.Read(3, 4, 0, make([]byte, 4)); !errors.Is(err, ErrBadBAR) {
		t.Errorf("bad BAR: %v", err)
	}
	if _, err := b.Read(3, 1, 1020, make([]byte, 8)); !errors.Is(err, ErrBounds) {
		t.Errorf("overread: %v", err)
	}
	if _, err := b.Write(3, 1, 1024, []byte{1}); !errors.Is(err, ErrBounds) {
		t.Errorf("overwrite: %v", err)
	}
	if _, err := b.WriteWord(5, 0, 0, 1); !errors.Is(err, ErrNoDevice) {
		t.Errorf("word write missing slot: %v", err)
	}
	if _, _, err := b.ReadWord(3, 0, 14); !errors.Is(err, ErrBounds) {
		t.Errorf("unaligned word at end: %v", err)
	}
}

func TestWordAccess(t *testing.T) {
	b, d := newBus(t)
	cyc, err := b.WriteWord(3, 0, 4, 0xDEADBEEF)
	if err != nil {
		t.Fatal(err)
	}
	if cyc != wordCycles {
		t.Errorf("write word cycles = %d", cyc)
	}
	if got := binary.LittleEndian.Uint32(d.bar0[4:]); got != 0xDEADBEEF {
		t.Errorf("register = %08x", got)
	}
	v, _, err := b.ReadWord(3, 0, 4)
	if err != nil || v != 0xDEADBEEF {
		t.Errorf("ReadWord = %08x, %v", v, err)
	}
}

// TestWordAccessAllocs: a register access is the host driver's most
// frequent bus transaction (five per call), so it must not allocate.
// The data phase lives in the slot, not in an array that escapes
// through the Device interface. A burst read fills the caller's
// buffer, so it allocates nothing either.
func TestWordAccessAllocs(t *testing.T) {
	b, _ := newBus(t)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := b.WriteWord(3, 0, 4, 0xDEADBEEF); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("WriteWord allocates %.0f times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, _, err := b.ReadWord(3, 0, 4); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ReadWord allocates %.0f times, want 0", n)
	}
	buf := make([]byte, 64)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := b.Read(3, 1, 0, buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a burst Read into caller storage allocates %.0f times, want 0", n)
	}
}

func TestWordDearerThanBurstPerByte(t *testing.T) {
	// 64 register writes must cost more than one 256-byte burst; this is
	// the property that makes DMA staging worthwhile in E6.
	regs := uint64(64) * wordCycles
	burst := TransferCycles(256)
	if regs <= burst {
		t.Errorf("word loop (%d) not dearer than burst (%d)", regs, burst)
	}
}
