package mcu

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"

	"agilefpga/internal/algos"
	"agilefpga/internal/compress"
	"agilefpga/internal/fpga"
	"agilefpga/internal/workload"
)

// TestPlanMarksMatchReaderGolden: a plan decoded at Download holds the
// bytes and the 256-byte-window InputConsumed() marks the codec readers
// are pinned to (internal/compress/testdata/reader_golden.json, for the
// rle and framediff images of two bank functions on the 32×40 fabric).
// The marks are the ROM-stage costs every load replays.
func TestPlanMarksMatchReaderGolden(t *testing.T) {
	raw, err := os.ReadFile("../compress/testdata/reader_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]struct {
		Out, Marks string
		N, Last    int
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	for _, codec := range []string{"rle", "framediff"} {
		for _, f := range []*algos.Function{algos.FFT(), algos.CRC32()} {
			key := codec + "/image-" + f.Name()
			want, ok := golden[key]
			if !ok {
				t.Fatalf("%s: not in the reader golden", key)
			}
			c := newController(t, Config{Geometry: fpga.Geometry{Rows: 32, Cols: 40}, ContiguousOnly: true})
			install(t, c, f, codec)
			p := c.plans[f.ID()]
			at := make(map[int]int) // output offset → mark
			for _, w := range p.wins {
				at[w.out] = w.consumed
			}
			var seq []byte
			for w := 1; w <= p.rawBytes/256; w++ {
				seq = binary.AppendUvarint(seq, uint64(at[256*w]))
			}
			out, marks := sha256.Sum256(bytes.Join(p.images, nil)), sha256.Sum256(seq)
			last := p.wins[len(p.wins)-1].consumed
			if hex.EncodeToString(out[:]) != want.Out || p.rawBytes != want.N {
				t.Errorf("%s: plan images differ from the golden decode", key)
			}
			if hex.EncodeToString(marks[:]) != want.Marks || last != want.Last {
				t.Errorf("%s: plan window marks differ from the golden reader's", key)
			}
		}
	}
}

// TestBootedCardMatchesProvisioned: a card booted from a ROM image
// decodes its plans at New; a card provisioned by Download decodes them
// one record at a time. Over a Zipf trace with evictions, decode-cache
// hits and misses, an SEU and a scrub, both charge identical virtual time
// per request, end with identical fabric bytes and statistics, and
// neither ever writes to a plan's images.
func TestBootedCardMatchesProvisioned(t *testing.T) {
	cfg := Config{Geometry: fpga.Geometry{Rows: 32, Cols: 24}}
	cfg.DecodeCacheBytes = 8 * cfg.Geometry.FrameBytes()
	prov := newController(t, cfg)
	codecs := compress.Names()
	var fns []*algos.Function
	var ids []uint16
	for i, f := range algos.Bank() {
		if cfg.Geometry.FramesForLUTs(f.LUTs) > cfg.Geometry.NumFrames()/2 {
			continue
		}
		install(t, prov, f, codecs[i%len(codecs)])
		fns = append(fns, f)
		ids = append(ids, f.ID())
	}
	bootCfg := cfg
	bootCfg.ROMImage = prov.ROM().Image()
	boot := newController(t, bootCfg)
	cards := []*Controller{prov, boot}

	pristine := make([]map[uint16][][]byte, len(cards))
	for i, c := range cards {
		pristine[i] = make(map[uint16][][]byte)
		for fn, p := range c.plans {
			for _, img := range p.images {
				pristine[i][fn] = append(pristine[i][fn], bytes.Clone(img))
			}
		}
	}

	zipf, err := workload.NewZipf(ids, 1.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[uint16]*algos.Function)
	for _, f := range fns {
		byID[f.ID()] = f
	}
	for step := 0; step < 400; step++ {
		f := byID[zipf.Next()]
		in := make([]byte, f.BlockBytes)
		in[0] = byte(step)
		out0, br0, err0 := prov.Execute(f.ID(), in)
		out1, br1, err1 := boot.Execute(f.ID(), in)
		if err0 != nil || err1 != nil {
			t.Fatalf("step %d %s: %v / %v", step, f.Name(), err0, err1)
		}
		if !bytes.Equal(out0, out1) || br0 != br1 {
			t.Fatalf("step %d %s: provisioned and booted cards diverge", step, f.Name())
		}
		if step == 200 {
			var fn uint16
			for fn = range prov.kernel.table {
				break
			}
			frames := prov.FramesOf(fn)
			for _, c := range cards {
				if err := c.Fabric().InjectSEU(frames[len(frames)-1], 8*40+3); err != nil {
					t.Fatal(err)
				}
			}
			rep0, err0 := prov.Scrub()
			rep1, err1 := boot.Scrub()
			if err0 != nil || err1 != nil {
				t.Fatalf("scrub: %v / %v", err0, err1)
			}
			if rep0 != rep1 || rep0.FramesRepaired != 1 {
				t.Fatalf("scrub reports %+v / %+v, want one identical repair", rep0, rep1)
			}
		}
	}
	st := prov.Stats()
	if st != boot.Stats() {
		t.Errorf("stats diverge:\nprovisioned %+v\nbooted      %+v", st, boot.Stats())
	}
	if st.Evictions == 0 || st.DecompCacheHits == 0 || st.DecompCacheHits == st.Misses {
		t.Errorf("trace exercised too little: %+v", st)
	}
	a, b := fabricSnapshot(t, prov), fabricSnapshot(t, boot)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("frame %d differs between provisioned and booted cards", i)
		}
	}
	for i, c := range cards {
		for fn, p := range c.plans {
			for j, img := range p.images {
				if !bytes.Equal(img, pristine[i][fn][j]) {
					t.Fatalf("card %d: fn %d plan image %d was written", i, fn, j)
				}
			}
		}
		if err := c.CheckInvariants(); err != nil {
			t.Error(err)
		}
	}
}
