package bitstream

import (
	"encoding/binary"
	"testing"
	"testing/quick"

	"agilefpga/internal/fpga"
)

var testGeom = fpga.Geometry{Rows: 8, Cols: 16}

type nopCore uint16

func (c nopCore) ID() uint16                    { return uint16(c) }
func (c nopCore) Name() string                  { return "nop" }
func (c nopCore) OutputLen(n int) int           { return n }
func (c nopCore) ExecInto(out, in []byte) error { copy(out, in); return nil }
func (c nopCore) ExecCycles(n int) uint64       { return uint64(n) }

func newFabric(t *testing.T) *fpga.Fabric {
	t.Helper()
	reg := fpga.NewRegistry()
	if err := reg.Register(nopCore(9)); err != nil {
		t.Fatal(err)
	}
	return fpga.NewFabric(testGeom, reg)
}

func TestSynthesizeShape(t *testing.T) {
	n := Netlist{FnID: 9, Serial: 1, LUTs: 100, Seed: 42}
	images, err := Synthesize(testGeom, n)
	if err != nil {
		t.Fatal(err)
	}
	want := testGeom.FramesForLUTs(100)
	if len(images) != want {
		t.Fatalf("got %d frames, want %d", len(images), want)
	}
	for i, img := range images {
		if len(img) != testGeom.FrameBytes() {
			t.Fatalf("frame %d: %d bytes", i, len(img))
		}
		sig, ok := fpga.DecodeSignature(img)
		if !ok {
			t.Fatalf("frame %d: no signature", i)
		}
		if sig.FnID != 9 || int(sig.Index) != i || int(sig.Total) != want || sig.Serial != 1 {
			t.Fatalf("frame %d: signature %+v", i, sig)
		}
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	n := Netlist{FnID: 3, Serial: 2, LUTs: 50, Seed: 7}
	a, err := Synthesize(testGeom, n)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthesize(testGeom, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if string(a[i]) != string(b[i]) {
			t.Fatalf("frame %d differs between identical syntheses", i)
		}
	}
	n.Seed = 8
	c, err := Synthesize(testGeom, n)
	if err != nil {
		t.Fatal(err)
	}
	if string(a[0]) == string(c[0]) {
		t.Error("different seeds produced identical logic")
	}
}

func TestSynthesizeLUTBudget(t *testing.T) {
	// The synthesised images must realise exactly the demanded LUT count.
	f := func(raw uint16) bool {
		demand := int(raw) % (testGeom.LUTsPerFrame() * 4)
		images, err := Synthesize(testGeom, Netlist{FnID: 1, LUTs: demand, Seed: 3})
		if err != nil {
			return false
		}
		used := 0
		for _, img := range images {
			for row := 1; row < testGeom.Rows; row++ {
				clb := img[row*fpga.CLBBytes:]
				for l := 0; l < fpga.SlicesPerCLB*fpga.LUTsPerSlice; l++ {
					if binary.LittleEndian.Uint16(clb[l*fpga.LUTBytes:]) != 0 {
						used++
					}
				}
			}
		}
		// Synthesised LUT inits are never zero, so usage is exact.
		return used == demand
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSynthesizeRejectsOversized(t *testing.T) {
	demand := testGeom.LUTsPerFrame()*testGeom.NumFrames() + 1
	if _, err := Synthesize(testGeom, Netlist{FnID: 1, LUTs: demand}); err == nil {
		t.Error("oversized function synthesised")
	}
	if _, err := Synthesize(testGeom, Netlist{FnID: 1, LUTs: -1}); err == nil {
		t.Error("negative LUT demand accepted")
	}
}

func TestAssembleLoadsThroughPort(t *testing.T) {
	fab := newFabric(t)
	images, err := Synthesize(testGeom, Netlist{FnID: 9, Serial: 5, LUTs: 80, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	frames := make([]int, len(images))
	for i := range frames {
		frames[i] = 3 + 2*i // non-contiguous placement
	}
	bs, err := Assemble(testGeom, fab.IDCode(), frames, images)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fab.Port().Write(bs); err != nil {
		t.Fatalf("port rejected assembled stream: %v", err)
	}
	inst := new(fpga.Instance)
	if err := fab.Activate(inst, frames); err != nil {
		t.Fatalf("activate: %v", err)
	}
	out := make([]byte, 5)
	if _, err := inst.Exec(out, []byte("hello")); err != nil || string(out) != "hello" {
		t.Fatalf("exec: %v %q", err, out)
	}
	// Configuration memory must hold exactly the synthesised images.
	for i, fi := range frames {
		got, err := fab.ReadFrame(fi)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(images[i]) {
			t.Errorf("frame %d readback differs from image", fi)
		}
	}
}

func TestAssembleValidation(t *testing.T) {
	images, _ := Synthesize(testGeom, Netlist{FnID: 9, LUTs: 10})
	if _, err := Assemble(testGeom, 0, []int{0, 1}, images); err == nil {
		t.Error("frame/image count mismatch accepted")
	}
	if _, err := Assemble(testGeom, 0, nil, nil); err == nil {
		t.Error("empty frame set accepted")
	}
	if _, err := Assemble(testGeom, 0, []int{99}, images); err == nil {
		t.Error("out-of-range frame accepted")
	}
	short := [][]byte{make([]byte, 3)}
	if _, err := Assemble(testGeom, 0, []int{0}, short); err == nil {
		t.Error("short image accepted")
	}
}

func TestAssembleRejectsTallGeometry(t *testing.T) {
	tall := fpga.Geometry{Rows: 400, Cols: 4} // 400*21/4 = 2100 words > 2047
	images := [][]byte{make([]byte, tall.FrameBytes())}
	if _, err := Assemble(tall, 0, []int{0}, images); err == nil {
		t.Error("FDRI overflow not detected")
	}
}

func TestBuilderCRCTracksPort(t *testing.T) {
	// A builder-produced stream with a deliberate extra register write
	// must still pass the port CRC check, proving builder and port agree
	// on CRC accounting.
	fab := newFabric(t)
	b := &Builder{}
	b.prime()
	b.Command(fpga.CmdRCRC)
	b.WriteReg(fpga.RegIDCODE, fab.IDCode())
	b.WriteReg(fpga.RegCOR, 0x1234)
	b.WriteReg(fpga.RegCTL, 0x9)
	b.WriteCRC()
	b.Command(fpga.CmdDESYNC)
	if _, err := fab.Port().Write(b.buf); err != nil {
		t.Fatalf("CRC disagreement: %v", err)
	}
}

func TestFrameWordsPadding(t *testing.T) {
	g := fpga.Geometry{Rows: 3, Cols: 2} // 63 bytes per frame: padded final word
	img := make([]byte, g.FrameBytes())
	img[len(img)-1] = 0xEE
	b := &Builder{}
	b.prime()
	before := len(b.buf) / 4
	if err := b.WriteFrame(g, img); err != nil {
		t.Fatal(err)
	}
	if got := len(b.buf)/4 - before; got != 1+g.FrameWords() {
		t.Fatalf("FDRI packet is %d words, want header + %d", got, g.FrameWords())
	}
	if tail := b.buf[len(b.buf)-2:]; tail[0] != 0xEE || tail[1] != 0 {
		t.Errorf("final word ends % x, want the image's last byte then a zero pad", tail)
	}
	if err := b.WriteFrame(g, make([]byte, 10)); err == nil {
		t.Error("short image accepted")
	}
}

func TestPartialReconfigLeavesNeighboursRunning(t *testing.T) {
	// The paper's core property: configuring new frames must not disturb a
	// function resident in other frames.
	reg := fpga.NewRegistry()
	if err := reg.Register(nopCore(9)); err != nil {
		t.Fatal(err)
	}
	type xorCore struct{ nopCore }
	fab := fpga.NewFabric(testGeom, reg)

	imagesA, _ := Synthesize(testGeom, Netlist{FnID: 9, Serial: 1, LUTs: 30, Seed: 1})
	framesA := []int{0}
	bsA, _ := Assemble(testGeom, fab.IDCode(), framesA, imagesA)
	if _, err := fab.Port().Write(bsA); err != nil {
		t.Fatal(err)
	}
	instA := new(fpga.Instance)
	if err := fab.Activate(instA, framesA); err != nil {
		t.Fatal(err)
	}

	// Load a second copy of the function elsewhere.
	imagesB, _ := Synthesize(testGeom, Netlist{FnID: 9, Serial: 2, LUTs: 30, Seed: 2})
	bsB, _ := Assemble(testGeom, fab.IDCode(), []int{5}, imagesB)
	if _, err := fab.Port().Write(bsB); err != nil {
		t.Fatal(err)
	}

	// Function A still valid and executable.
	if !instA.Valid() {
		t.Fatal("partial reconfiguration invalidated untouched frames")
	}
	if _, err := instA.Exec(make([]byte, 2), []byte{1, 2}); err != nil {
		t.Fatalf("exec after neighbour reconfig: %v", err)
	}
	_ = xorCore{}
}

func TestAssembledStreamsDeterministic(t *testing.T) {
	images, _ := Synthesize(testGeom, Netlist{FnID: 9, Serial: 1, LUTs: 80, Seed: 4})
	frames := []int{1, 2}
	a, err := Assemble(testGeom, fpga.DefaultIDCode, frames, images)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Assemble(testGeom, fpga.DefaultIDCode, frames, images)
	if string(a) != string(b) {
		t.Error("assembly not deterministic")
	}
}
