package mcu

import (
	"bytes"
	"errors"
	"testing"

	"agilefpga/internal/algos"
	"agilefpga/internal/bitstream"
	"agilefpga/internal/compress"
	"agilefpga/internal/fpga"
	"agilefpga/internal/memory"
	"agilefpga/internal/pci"
	"agilefpga/internal/replace"
	"agilefpga/internal/sim"
)

// newController builds a controller with the full algorithm bank
// registered and the given geometry.
func newController(t *testing.T, cfg Config) *Controller {
	t.Helper()
	reg := fpga.NewRegistry()
	if err := algos.RegisterAll(reg); err != nil {
		t.Fatal(err)
	}
	c, err := New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// install synthesises, compresses and downloads one bank function.
func install(t *testing.T, c *Controller, f *algos.Function, codecName string) {
	t.Helper()
	g := c.Fabric().Geometry()
	images, err := bitstream.Synthesize(g, bitstream.Netlist{
		FnID: f.ID(), Serial: 1, LUTs: f.LUTs, Seed: f.Seed(),
	})
	if err != nil {
		t.Fatalf("synthesize %s: %v", f.Name(), err)
	}
	var raw []byte
	for _, img := range images {
		raw = append(raw, img...)
	}
	codec, err := compress.New(codecName, g.FrameBytes())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := codec.Compress(raw)
	if err != nil {
		t.Fatal(err)
	}
	codecID, err := compress.IDOf(codecName)
	if err != nil {
		t.Fatal(err)
	}
	rec := memory.Record{
		Name: f.Name(), FnID: f.ID(), CodecID: codecID,
		RawSize: uint32(len(raw)), InBus: f.InBus, OutBus: f.OutBus,
		FrameCount: uint16(len(images)), Serial: 1,
	}
	if _, err := c.Download(rec, blob); err != nil {
		t.Fatalf("download %s: %v", f.Name(), err)
	}
}

func defaultCfg() Config {
	return Config{Geometry: fpga.DefaultGeometry}
}

func TestExecuteEndToEnd(t *testing.T) {
	c := newController(t, defaultCfg())
	f := algos.AES128()
	install(t, c, f, "framediff")

	input := []byte("agile algorithm-on-demand coproc") // 32 bytes
	out, br, err := c.Execute(f.ID(), input)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	want, _ := f.Exec(input)
	if !bytes.Equal(out, want) {
		t.Error("co-processor output differs from behavioural model")
	}
	// A cold call pays for ROM, decompression, configuration and exec.
	for _, ph := range []sim.Phase{sim.PhaseROM, sim.PhaseDecompress, sim.PhaseConfigure, sim.PhaseExec} {
		if br.Get(ph) == 0 {
			t.Errorf("cold call: phase %v unpaid", ph)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestHitAvoidsReconfiguration(t *testing.T) {
	c := newController(t, defaultCfg())
	f := algos.CRC32()
	install(t, c, f, "rle")
	in := []byte{1, 2, 3, 4}

	if _, _, err := c.Execute(f.ID(), in); err != nil {
		t.Fatal(err)
	}
	framesAfterCold := c.Stats().FramesLoaded
	_, br, err := c.Execute(f.ID(), in)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", st.Hits, st.Misses)
	}
	if st.FramesLoaded != framesAfterCold {
		t.Error("hot call reloaded frames")
	}
	if br.Get(sim.PhaseConfigure) != 0 || br.Get(sim.PhaseDecompress) != 0 {
		t.Error("hot call paid configuration costs")
	}
	if br.Get(sim.PhaseExec) == 0 {
		t.Error("hot call has no exec time")
	}
}

func TestEvictionUnderPressure(t *testing.T) {
	// 24 frames; aes(9) + fft(13) = 22, then matmul(11) forces eviction.
	c := newController(t, Config{Geometry: fpga.Geometry{Rows: 32, Cols: 24}})
	aes, fft, mat := algos.AES128(), algos.FFT(), algos.MatMul()
	for _, f := range []*algos.Function{aes, fft, mat} {
		install(t, c, f, "framediff")
	}
	in16 := make([]byte, 512)
	for i := range in16 {
		in16[i] = byte(i)
	}

	mustExec := func(f *algos.Function) {
		t.Helper()
		if _, _, err := c.Execute(f.ID(), in16); err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
	}
	mustExec(aes)
	mustExec(fft)
	if !c.Resident(aes.ID()) || !c.Resident(fft.ID()) {
		t.Fatal("both functions should be resident")
	}
	mustExec(mat) // must evict the LRU victim: aes
	if c.Resident(aes.ID()) {
		t.Error("LRU victim aes still resident")
	}
	if !c.Resident(fft.ID()) || !c.Resident(mat.ID()) {
		t.Error("wrong function evicted")
	}
	if c.Stats().Evictions == 0 {
		t.Error("no evictions recorded")
	}
}

func TestLRUOrderUnderPressure(t *testing.T) {
	c := newController(t, Config{Geometry: fpga.Geometry{Rows: 32, Cols: 24}})
	aes, fft, mat := algos.AES128(), algos.FFT(), algos.MatMul()
	for _, f := range []*algos.Function{aes, fft, mat} {
		install(t, c, f, "framediff")
	}
	in := make([]byte, 512)
	exec := func(f *algos.Function) {
		t.Helper()
		if _, _, err := c.Execute(f.ID(), in); err != nil {
			t.Fatal(err)
		}
	}
	exec(aes)
	exec(fft)
	exec(aes) // refresh aes: now fft is LRU
	exec(mat) // should evict fft, not aes
	if c.Resident(fft.ID()) {
		t.Error("fft survived despite being LRU")
	}
	if !c.Resident(aes.ID()) {
		t.Error("recently used aes was evicted")
	}
}

func TestContiguousOnlyPlacementFragmentation(t *testing.T) {
	// Without scatter, a fragmented free list can force evictions that a
	// scatter placer would avoid. gfmul(1 frame) × alternating installs
	// fragment the space.
	geom := fpga.Geometry{Rows: 32, Cols: 16}
	for _, scatter := range []bool{false, true} {
		c := newController(t, Config{Geometry: geom, ContiguousOnly: !scatter})
		crc, gf, fir := algos.CRC32(), algos.GFMul(), algos.FIR()
		for _, f := range []*algos.Function{crc, gf, fir} {
			install(t, c, f, "rle")
		}
		in := make([]byte, 64)
		for _, f := range []*algos.Function{crc, gf, fir, crc, gf, fir} {
			if _, _, err := c.Execute(f.ID(), in); err != nil {
				t.Fatalf("scatter=%v %s: %v", scatter, f.Name(), err)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("scatter=%v: %v", scatter, err)
			}
		}
		st := c.Stats()
		if scatter && st.ContigPlacements+st.ScatterPlacements == 0 {
			t.Error("no placements recorded")
		}
	}
}

func TestUnknownFunction(t *testing.T) {
	c := newController(t, defaultCfg())
	_, _, err := c.Execute(999, []byte{1})
	if !errors.Is(err, memory.ErrNoRecord) {
		t.Errorf("err = %v, want ErrNoRecord", err)
	}
	if c.Stats().Errors != 1 {
		t.Error("error not counted")
	}
}

// TestFindRecordMatchesScan: the mini OS lookup answers from the ROM's id
// index, but reports — and so charges — what its modelled scan of the
// table touches: every slot up to the target's, the whole table for an
// unknown id. The oracle is that scan, the loop findRecord used to run
// over Record(i). Record(i) reads the same decoded table the index does;
// that it equals the decode of slot i's bytes is checked in
// internal/memory (TestRecordIndexMatchesScan).
func TestFindRecordMatchesScan(t *testing.T) {
	c := newController(t, defaultCfg())
	bank := algos.Bank()
	for i := len(bank) - 1; i >= 0; i -= 2 { // ids out of slot order, with gaps
		install(t, c, bank[i], "rle")
	}
	for id := uint16(0); id <= uint16(len(bank))+2; id++ {
		want, scanned, found := memory.Record{}, c.rom.NumRecords(), false
		for i := 0; i < c.rom.NumRecords(); i++ {
			if rec := c.rom.Records()[i]; rec.FnID == id {
				want, scanned, found = rec, i+1, true
				break
			}
		}
		rec, n, err := c.findRecord(id)
		if (err == nil) != found || rec != want || n != scanned {
			t.Errorf("findRecord(%d) = %+v, %d, %v; scan found %+v after %d records", id, rec, n, err, want, scanned)
		}
	}
}

func TestFunctionTooLarge(t *testing.T) {
	// A 4-frame device cannot host AES (9 frames at 32 rows).
	c := newController(t, Config{Geometry: fpga.Geometry{Rows: 32, Cols: 4}})
	// Bypass install's synthesize (it would fail) and download a
	// well-formed, uncompressed 9-frame bitstream by hand.
	g := c.Fabric().Geometry()
	rec := memory.Record{Name: "huge", FnID: algos.IDAES128, CodecID: compress.IDNone,
		InBus: 16, OutBus: 16, FrameCount: 9, Serial: 1}
	if _, err := c.Download(rec, make([]byte, 9*g.FrameBytes())); err != nil {
		t.Fatal(err)
	}
	_, _, err := c.Execute(algos.IDAES128, []byte{1})
	if !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

// TestCorruptBlobRecovers: a blob that does not decode to its record's
// frames is rejected at Download, before it reaches the ROM — a card
// holding one good function keeps its ROM, free list and invariants, and
// the good function keeps running.
func TestCorruptBlobRecovers(t *testing.T) {
	c := newController(t, defaultCfg())
	good, f := algos.CRC32(), algos.GFMul()
	install(t, c, good, "rle")
	in := []byte{1, 2, 3, 4}
	if _, _, err := c.Execute(good.ID(), in); err != nil {
		t.Fatal(err)
	}
	rle, _ := compress.New("rle", 0)
	rleID, _ := compress.IDOf("rle")
	oneFrame, _ := rle.Compress(make([]byte, c.Fabric().Geometry().FrameBytes()))
	twoFrames, _ := rle.Compress(make([]byte, 2*c.Fabric().Geometry().FrameBytes()))
	garbage, _ := rle.Compress([]byte("this is not a bitstream"))
	for _, bc := range []struct {
		name   string
		codec  byte
		frames uint16
		blob   []byte
	}{
		{"does not decode", rleID, 1, []byte{0x05, 'x'}}, // a 6-byte literal cut short
		{"not frame-aligned", rleID, 1, garbage},
		{"fewer frames than the record", rleID, 2, oneFrame},
		{"more frames than the record", rleID, 1, twoFrames},
		{"unknown codec", 0xEE, 1, oneFrame},
	} {
		image, free := c.ROM().Image(), len(c.kernel.freeList)
		rec := memory.Record{Name: f.Name(), FnID: f.ID(), CodecID: bc.codec,
			InBus: f.InBus, OutBus: f.OutBus, FrameCount: bc.frames, Serial: 1}
		if _, err := c.Download(rec, bc.blob); err == nil {
			t.Fatalf("%s: corrupt blob downloaded", bc.name)
		}
		if !bytes.Equal(c.ROM().Image(), image) {
			t.Errorf("%s: rejected download changed the ROM", bc.name)
		}
		if len(c.kernel.freeList) != free {
			t.Errorf("%s: rejected download moved the free list", bc.name)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", bc.name, err)
		}
		if _, _, err := c.Execute(f.ID(), in); !errors.Is(err, memory.ErrNoRecord) {
			t.Errorf("%s: calling the rejected function: err = %v, want ErrNoRecord", bc.name, err)
		}
	}
	out, _, err := c.Execute(good.ID(), in)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := good.Exec(in); !bytes.Equal(out, want) {
		t.Error("the good function's output changed")
	}
}

func TestInputExceedsRAMWindow(t *testing.T) {
	c := newController(t, Config{Geometry: fpga.DefaultGeometry, RAMBytes: 4096})
	f := algos.CRC32()
	install(t, c, f, "none")
	_, _, err := c.Execute(f.ID(), make([]byte, 3000)) // window is 2048
	if !errors.Is(err, ErrRAMWindow) {
		t.Errorf("err = %v, want ErrRAMWindow", err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestReloadAfterExternalClobber(t *testing.T) {
	c := newController(t, defaultCfg())
	f := algos.DES()
	install(t, c, f, "lz77")
	in := []byte("8bytes!!")
	if _, _, err := c.Execute(f.ID(), in); err != nil {
		t.Fatal(err)
	}
	// Simulate an SEU / rogue reconfiguration wiping one resident frame.
	var clobbered bool
	for i := 0; i < c.Fabric().Geometry().NumFrames(); i++ {
		if sig, ok := c.Fabric().FrameSignature(i); ok && sig.FnID == f.ID() {
			if err := c.Fabric().ClearFrame(i); err != nil {
				t.Fatal(err)
			}
			clobbered = true
			break
		}
	}
	if !clobbered {
		t.Fatal("no resident frame found to clobber")
	}
	out, _, err := c.Execute(f.ID(), in)
	if err != nil {
		t.Fatalf("Execute after clobber: %v", err)
	}
	want, _ := f.Exec(in)
	if !bytes.Equal(out, want) {
		t.Error("output wrong after reload")
	}
	if st := c.Stats(); st.Misses != 2 {
		t.Errorf("misses = %d, want 2 (reload counted)", st.Misses)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestAllCodecsLoadAllFunctions(t *testing.T) {
	for _, codecName := range compress.Names() {
		c := newController(t, defaultCfg())
		for _, f := range []*algos.Function{algos.CRC32(), algos.GFMul()} {
			install(t, c, f, codecName)
			in := []byte{1, 2, 3, 4, 5, 6, 7, 8}
			out, _, err := c.Execute(f.ID(), in)
			if err != nil {
				t.Fatalf("%s/%s: %v", codecName, f.Name(), err)
			}
			want, _ := f.Exec(padTo(in, int(f.InBus)))
			if !bytes.Equal(out, want) {
				t.Errorf("%s/%s: wrong output", codecName, f.Name())
			}
		}
	}
}

func TestMailboxProtocol(t *testing.T) {
	c := newController(t, defaultCfg())
	f := algos.CRC32()
	install(t, c, f, "rle")

	bus := pci.NewBus()
	if err := bus.Attach(0, c); err != nil {
		t.Fatal(err)
	}

	input := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	if _, err := bus.Write(0, 1, 0, input); err != nil {
		t.Fatal(err)
	}
	if _, err := bus.WriteWord(0, 0, RegARG0, uint32(f.ID())); err != nil {
		t.Fatal(err)
	}
	if _, err := bus.WriteWord(0, 0, RegARG1, uint32(len(input))); err != nil {
		t.Fatal(err)
	}
	if _, err := bus.WriteWord(0, 0, RegCMD, CmdExec); err != nil {
		t.Fatal(err)
	}
	status, _, err := bus.ReadWord(0, 0, RegSTATUS)
	if err != nil || status != StatusOK {
		t.Fatalf("STATUS = %d, %v", status, err)
	}
	rlen, _, _ := bus.ReadWord(0, 0, RegRESULTLEN)
	if rlen != 4 {
		t.Fatalf("RESULTLEN = %d", rlen)
	}
	out := make([]byte, rlen)
	_, err = bus.Read(0, 1, c.OutWindowOff(), out)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := f.Exec(input)
	if !bytes.Equal(out, want) {
		t.Error("mailbox output mismatch")
	}

	// Query and evict.
	if _, err := bus.WriteWord(0, 0, RegARG0, uint32(f.ID())); err != nil {
		t.Fatal(err)
	}
	if _, err := bus.WriteWord(0, 0, RegCMD, CmdQuery); err != nil {
		t.Fatal(err)
	}
	if s, _, _ := bus.ReadWord(0, 0, RegSTATUS); s != StatusResident {
		t.Errorf("query status = %d", s)
	}
	if _, err := bus.WriteWord(0, 0, RegCMD, CmdEvict); err != nil {
		t.Fatal(err)
	}
	if s, _, _ := bus.ReadWord(0, 0, RegSTATUS); s != StatusOK {
		t.Errorf("evict status = %d", s)
	}
	if _, err := bus.WriteWord(0, 0, RegCMD, CmdQuery); err != nil {
		t.Fatal(err)
	}
	if s, _, _ := bus.ReadWord(0, 0, RegSTATUS); s != StatusAbsent {
		t.Errorf("post-evict query status = %d", s)
	}

	// Telemetry registers.
	if free, _, _ := bus.ReadWord(0, 0, RegFREEFRM); free != uint32(len(c.kernel.freeList)) {
		t.Error("free-frame telemetry wrong")
	}
	if reqs, _, _ := bus.ReadWord(0, 0, RegREQS); reqs != uint32(c.Stats().Requests) {
		t.Error("request telemetry wrong")
	}
}

func TestMailboxScrubAndDefrag(t *testing.T) {
	c := newController(t, defaultCfg())
	f := algos.DES()
	install(t, c, f, "rle")
	bus := pci.NewBus()
	if err := bus.Attach(0, c); err != nil {
		t.Fatal(err)
	}
	// Load the function, upset a bit, scrub over the mailbox.
	if _, _, err := c.Execute(f.ID(), []byte("8bytes!!")); err != nil {
		t.Fatal(err)
	}
	frames := c.FramesOf(f.ID())
	if err := c.Fabric().InjectSEU(frames[1], 500); err != nil {
		t.Fatal(err)
	}
	if _, err := bus.WriteWord(0, 0, RegCMD, CmdScrub); err != nil {
		t.Fatal(err)
	}
	if s, _, _ := bus.ReadWord(0, 0, RegSTATUS); s != StatusOK {
		t.Fatalf("scrub status = %d", s)
	}
	if n, _, _ := bus.ReadWord(0, 0, RegRESULTLEN); n != 1 {
		t.Errorf("scrub repaired %d frames over mailbox, want 1", n)
	}
	// Defrag over the mailbox.
	if _, err := bus.WriteWord(0, 0, RegCMD, CmdDefrag); err != nil {
		t.Fatal(err)
	}
	if s, _, _ := bus.ReadWord(0, 0, RegSTATUS); s != StatusOK {
		t.Fatalf("defrag status = %d", s)
	}
	if n, _, _ := bus.ReadWord(0, 0, RegRESULTLEN); n != 1 {
		t.Errorf("defrag moved %d functions, want 1", n)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMailboxErrors(t *testing.T) {
	c := newController(t, defaultCfg())
	bus := pci.NewBus()
	_ = bus.Attach(0, c)

	// Exec of unknown function.
	_, _ = bus.WriteWord(0, 0, RegARG0, 777)
	_, _ = bus.WriteWord(0, 0, RegARG1, 4)
	_, _ = bus.Write(0, 1, 0, []byte{1, 2, 3, 4})
	_, _ = bus.WriteWord(0, 0, RegCMD, CmdExec)
	if s, _, _ := bus.ReadWord(0, 0, RegSTATUS); s != StatusError {
		t.Errorf("status = %d, want error", s)
	}
	if code, _, _ := bus.ReadWord(0, 0, RegERRCODE); code != ErrCodeNoRecord {
		t.Errorf("errcode = %d, want ErrCodeNoRecord", code)
	}

	// Zero-length exec.
	_, _ = bus.WriteWord(0, 0, RegARG1, 0)
	_, _ = bus.WriteWord(0, 0, RegCMD, CmdExec)
	if code, _, _ := bus.ReadWord(0, 0, RegERRCODE); code != ErrCodeBadInput {
		t.Errorf("errcode = %d, want ErrCodeBadInput", code)
	}

	// Unknown command.
	_, _ = bus.WriteWord(0, 0, RegCMD, 99)
	if s, _, _ := bus.ReadWord(0, 0, RegSTATUS); s != StatusError {
		t.Errorf("unknown command status = %d", s)
	}

	// Unaligned register access.
	if err := c.WriteBAR(0, 2, []byte{0, 0, 0, 0}); err == nil {
		t.Error("unaligned write accepted")
	}
	if err := c.ReadBAR(0, 2, make([]byte, 4)); err == nil {
		t.Error("unaligned read accepted")
	}
	if err := c.ReadBAR(7, 0, make([]byte, 4)); err == nil {
		t.Error("bogus BAR accepted")
	}
}

func TestDownloadROMFull(t *testing.T) {
	c := newController(t, Config{Geometry: fpga.DefaultGeometry, ROMBytes: 4096})
	// Uncompressed AES is 9 frames × 672 B ≈ 6 KiB: too big for 4 KiB.
	f := algos.AES128()
	g := c.Fabric().Geometry()
	images, err := bitstream.Synthesize(g, bitstream.Netlist{FnID: f.ID(), Serial: 1, LUTs: f.LUTs, Seed: f.Seed()})
	if err != nil {
		t.Fatal(err)
	}
	var raw []byte
	for _, img := range images {
		raw = append(raw, img...)
	}
	rec := memory.Record{Name: f.Name(), FnID: f.ID(), CodecID: compress.IDNone,
		RawSize: uint32(len(raw)), InBus: f.InBus, OutBus: f.OutBus,
		FrameCount: uint16(len(images)), Serial: 1}
	if _, err := c.Download(rec, raw); !errors.Is(err, memory.ErrROMFull) {
		t.Fatalf("err = %v, want ErrROMFull", err)
	}
	// The failed download must leave the ROM consistent.
	if c.ROM().NumRecords() != 0 {
		t.Error("failed download left a record behind")
	}
}

func TestPolicyPluggability(t *testing.T) {
	for _, pname := range []string{"lru", "fifo", "lfu", "random"} {
		pol, err := replace.New(pname, 42)
		if err != nil {
			t.Fatal(err)
		}
		c := newController(t, Config{
			Geometry: fpga.Geometry{Rows: 32, Cols: 24}, Policy: pol,
		})
		if c.PolicyName() != pname {
			t.Errorf("PolicyName = %q", c.PolicyName())
		}
		for _, f := range []*algos.Function{algos.AES128(), algos.FFT(), algos.MatMul()} {
			install(t, c, f, "framediff")
		}
		in := make([]byte, 512)
		for i := 0; i < 9; i++ {
			f := []*algos.Function{algos.AES128(), algos.FFT(), algos.MatMul()}[i%3]
			if _, _, err := c.Execute(f.ID(), in); err != nil {
				t.Fatalf("%s: %v", pname, err)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", pname, err)
			}
		}
	}
}

func TestWindowSizeAffectsOverheadOnly(t *testing.T) {
	// Same function, two window sizes: identical output, different
	// overhead accounting.
	run := func(window int) (sim.Breakdown, []byte) {
		c := newController(t, Config{Geometry: fpga.DefaultGeometry, WindowBytes: window})
		f := algos.DES()
		install(t, c, f, "huffman")
		out, br, err := c.Execute(f.ID(), []byte("testing!"))
		if err != nil {
			t.Fatal(err)
		}
		return br, out
	}
	brSmall, outSmall := run(16)
	brBig, outBig := run(4096)
	if !bytes.Equal(outSmall, outBig) {
		t.Fatal("window size changed results")
	}
	if brSmall.Get(sim.PhaseOverhead) <= brBig.Get(sim.PhaseOverhead) {
		t.Error("small windows should cost more overhead")
	}
	if brSmall.Get(sim.PhaseConfigure) != brBig.Get(sim.PhaseConfigure) {
		t.Error("port time should not depend on window size")
	}
}

func TestEmptyInputRejected(t *testing.T) {
	c := newController(t, defaultCfg())
	f := algos.CRC32()
	install(t, c, f, "none")
	if _, _, err := c.Execute(f.ID(), nil); err == nil {
		t.Error("empty input accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	reg := fpga.NewRegistry()
	if _, err := New(Config{Geometry: fpga.Geometry{Rows: 0, Cols: 8}}, reg); err == nil {
		t.Error("bad geometry accepted")
	}
	if _, err := New(Config{Geometry: fpga.DefaultGeometry, WindowBytes: 2}, reg); err == nil {
		t.Error("sub-word window accepted")
	}
}

func TestStatsAccumulate(t *testing.T) {
	c := newController(t, defaultCfg())
	f := algos.GFMul()
	install(t, c, f, "rle")
	for i := 0; i < 5; i++ {
		if _, _, err := c.Execute(f.ID(), []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Requests != 5 || st.Hits != 4 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.RawConfigBytes == 0 || st.CompConfigBytes == 0 {
		t.Error("config byte counters empty")
	}
	if st.CompConfigBytes >= st.RawConfigBytes {
		t.Error("rle did not compress the gfmul bitstream")
	}
	if st.Phases.Total() == 0 {
		t.Error("phase totals empty")
	}
	c.ResetStats()
	if c.Stats().Requests != 0 {
		t.Error("ResetStats failed")
	}
}

// padTo zero-pads p to a multiple of unit, as the data-input module
// stages it.
func padTo(p []byte, unit int) []byte {
	out := make([]byte, Padded(len(p), unit))
	copy(out, p)
	return out
}
