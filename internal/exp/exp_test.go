package exp

import (
	"strings"
	"testing"
)

// The experiment tests assert the qualitative shapes DESIGN.md §6 commits
// to — who wins, roughly by how much, where crossovers fall — at reduced
// request counts so the suite stays fast. The benchmarks run full scale.

func TestE1AllFunctionsVerify(t *testing.T) {
	r, err := RunE1()
	if err != nil {
		t.Fatal(err)
	}
	if r.Verified != r.Total || r.Total != 16 {
		t.Fatalf("verified %d/%d", r.Verified, r.Total)
	}
	out := r.Table.String()
	if !strings.Contains(out, "aes128") || !strings.Contains(out, "bitonic256") {
		t.Error("table missing functions")
	}
}

func TestE2CompressionShape(t *testing.T) {
	r, err := RunE2()
	if err != nil {
		t.Fatal(err)
	}
	// Every real codec compresses the bank.
	for _, c := range []string{"rle", "lz77", "huffman", "framediff"} {
		if r.Ratio[c] <= 1.0 {
			t.Errorf("%s ratio = %.2f, want > 1", c, r.Ratio[c])
		}
	}
	// The paper's §4 open problem: exploiting inter-frame symmetry must
	// beat plain RLE and Huffman.
	if r.Ratio["framediff"] <= r.Ratio["rle"] {
		t.Errorf("framediff (%.2f) must beat rle (%.2f)", r.Ratio["framediff"], r.Ratio["rle"])
	}
	if r.Ratio["framediff"] <= r.Ratio["huffman"] {
		t.Errorf("framediff (%.2f) must beat huffman (%.2f)", r.Ratio["framediff"], r.Ratio["huffman"])
	}
	// Under the pipelined configuration model (DESIGN §12) the ROM stream
	// hides behind the port, so byte-rate codecs land within a whisker of
	// the uncompressed baseline: compression buys ROM capacity without a
	// configuration-latency bill. Decoders slower than the port cannot
	// hide — framediff (1.25 cycles/byte) sits visibly above none, and
	// bit-serial Huffman (4 cycles/byte) is the clear bottleneck.
	near := r.ConfigTime["none"] + r.ConfigTime["none"]/100
	for _, c := range []string{"rle", "lz77"} {
		if r.ConfigTime[c] > near {
			t.Errorf("%s config time %v not within 1%% of none %v — ROM stream not hidden", c, r.ConfigTime[c], r.ConfigTime["none"])
		}
	}
	if r.ConfigTime["framediff"] <= r.ConfigTime["none"] {
		t.Errorf("framediff (%v) decodes below port rate, must sit above none (%v)",
			r.ConfigTime["framediff"], r.ConfigTime["none"])
	}
	if r.ConfigTime["huffman"] <= r.ConfigTime["framediff"] {
		t.Errorf("huffman (%v) should be decoder-bound, above framediff (%v)",
			r.ConfigTime["huffman"], r.ConfigTime["framediff"])
	}
}

func TestE2PerFunction(t *testing.T) {
	tab, err := RunE2PerFunction("framediff")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 16 {
		t.Errorf("rows = %d", len(tab.Rows))
	}
	if _, err := RunE2PerFunction("nope"); err == nil {
		t.Error("unknown codec accepted")
	}
}

func TestE3ReplacementShape(t *testing.T) {
	r, err := RunE3(600)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 0.02
	for _, w := range []string{"zipf", "phased"} {
		// LRU must be at least competitive with FIFO and Random under
		// locality, and OPT bounds everything.
		if r.HitRate[w]["lru"]+eps < r.HitRate[w]["fifo"] {
			t.Errorf("%s: LRU (%.3f) well below FIFO (%.3f)", w, r.HitRate[w]["lru"], r.HitRate[w]["fifo"])
		}
		if r.HitRate[w]["lru"]+eps < r.HitRate[w]["random"] {
			t.Errorf("%s: LRU (%.3f) well below Random (%.3f)", w, r.HitRate[w]["lru"], r.HitRate[w]["random"])
		}
	}
	for _, w := range []string{"uniform", "zipf", "phased", "cyclic"} {
		for _, p := range []string{"lru", "fifo", "lfu", "random"} {
			if r.HitRate[w][p] > r.HitRate[w]["opt"]+eps {
				t.Errorf("%s: %s (%.3f) beat OPT (%.3f)", w, p, r.HitRate[w][p], r.HitRate[w]["opt"])
			}
		}
	}
	// The cyclic adversary starves LRU; OPT still hits.
	if r.HitRate["cyclic"]["lru"] > 0.05 {
		t.Errorf("cyclic: LRU hit rate %.3f, expected ≈0", r.HitRate["cyclic"]["lru"])
	}
	if r.HitRate["cyclic"]["opt"] < 0.05 {
		t.Errorf("cyclic: OPT hit rate %.3f, expected substantial", r.HitRate["cyclic"]["opt"])
	}
	// Hits are cheaper than misses: higher hit rate → lower mean latency
	// for the same trace (check the extremes on zipf).
	if r.HitRate["zipf"]["opt"] > r.HitRate["zipf"]["random"] &&
		r.MeanLatency["zipf"]["opt"] >= r.MeanLatency["zipf"]["random"] {
		t.Error("zipf: OPT hits more but is not faster")
	}
}

func TestE4PlacementShape(t *testing.T) {
	r, err := RunE4(400)
	if err != nil {
		t.Fatal(err)
	}
	if r.Evictions["contiguous"] < r.Evictions["scatter"] {
		t.Errorf("contiguous (%d evictions) should not beat scatter (%d)",
			r.Evictions["contiguous"], r.Evictions["scatter"])
	}
	if r.HitRate["scatter"]+0.02 < r.HitRate["contiguous"] {
		t.Errorf("scatter hit rate %.3f well below contiguous %.3f",
			r.HitRate["scatter"], r.HitRate["contiguous"])
	}
}

func TestE5OffloadShape(t *testing.T) {
	r, err := RunE5(8 * 1024)
	if err != nil {
		t.Fatal(err)
	}
	// Every function's fabric kernel beats host software — except md5,
	// the deliberate negative control (serial rounds, fast software).
	for name, ks := range r.KernelSpeedup {
		if name == "md5" {
			if ks >= 1 {
				t.Errorf("md5 kernel speedup %.2f — negative control broken", ks)
			}
			continue
		}
		if ks <= 1 {
			t.Errorf("%s: kernel speedup %.2f ≤ 1", name, ks)
		}
	}
	// Compute-dense kernels survive the PCI round trip; streaming ones
	// are bus-bound.
	if r.E2ESpeedup["modexp64"] <= 1.5 {
		t.Errorf("modexp64 e2e speedup %.2f, want > 1.5", r.E2ESpeedup["modexp64"])
	}
	if r.E2ESpeedup["crc32"] >= 1 {
		t.Errorf("crc32 e2e speedup %.2f, want < 1 (bus-bound)", r.E2ESpeedup["crc32"])
	}
}

func TestE6CrossoverShape(t *testing.T) {
	r, err := RunE6(50_000)
	if err != nil {
		t.Fatal(err)
	}
	if r.HotCrossover["modexp64"] == 0 {
		t.Error("modexp64 never crossed — offload broken")
	}
	if r.HotCrossover["aes128"] != 0 {
		t.Errorf("aes128 crossed at %d B — PCI model too cheap", r.HotCrossover["aes128"])
	}
}

func TestE7WindowShape(t *testing.T) {
	r, err := RunE7()
	if err != nil {
		t.Fatal(err)
	}
	// The curve is U-shaped: tiny windows pay per-window management
	// overhead, huge windows lose the decompress/port overlap (the whole
	// first-window fill is exposed). The sweet spot sits in the middle.
	best := E7Windows[0]
	for _, w := range E7Windows {
		if r.ConfigPath[w] < r.ConfigPath[best] {
			best = w
		}
	}
	first, last := E7Windows[0], E7Windows[len(E7Windows)-1]
	if best == first {
		t.Errorf("smallest window (%d B) is optimal — overhead model missing", first)
	}
	if best == last {
		t.Errorf("largest window (%d B) is optimal — overlap model missing", last)
	}
}

func TestE8ROMCapacityShape(t *testing.T) {
	r, err := RunE8()
	if err != nil {
		t.Fatal(err)
	}
	for _, codec := range []string{"none", "rle", "framediff"} {
		prev := -1
		for _, size := range E8ROMSizes {
			got := r.Capacity[size][codec]
			if got <= prev {
				t.Errorf("%s: capacity not increasing with ROM size (%d → %d)", codec, prev, got)
			}
			prev = got
		}
	}
	for _, size := range E8ROMSizes {
		if r.Capacity[size]["framediff"] <= r.Capacity[size]["none"] {
			t.Errorf("ROM %d: framediff stores %d ≤ none %d", size,
				r.Capacity[size]["framediff"], r.Capacity[size]["none"])
		}
	}
}

func TestE18PipelineShape(t *testing.T) {
	r, err := RunE18()
	if err != nil {
		t.Fatal(err)
	}
	// The pipeline may never lose to the additive baseline, for any codec.
	for codec, seq := range r.Sequential {
		if r.Pipelined[codec] > seq {
			t.Errorf("%s: pipelined %v slower than sequential %v", codec, r.Pipelined[codec], seq)
		}
	}
	// The acceptance bar: whole-bank framediff cold loads must speed up by
	// at least 1.4x when ROM streaming, decompression, and port writes
	// overlap (DESIGN §12).
	if r.Speedup["framediff"] < 1.4 {
		t.Errorf("framediff speedup %.2fx, want ≥ 1.4x", r.Speedup["framediff"])
	}
	// Decoder-bound huffman stalls the port; byte-rate rle does not.
	if r.Stall["huffman"] == 0 {
		t.Error("huffman (4 cycles/byte) should leave stalls on the critical path")
	}
	if r.Saved["framediff"] == 0 {
		t.Error("framediff overlap saved nothing — pipeline not engaged")
	}
}

func TestE20ChainingShape(t *testing.T) {
	r, err := RunE20(8, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Identical {
		t.Fatal("chained outputs diverged from staged outputs")
	}
	for chain, stagedPCI := range r.StagedPCI {
		// A 2-stage chain crosses PCI twice instead of four times; the
		// intermediate may be smaller than the input, so the chained PCI
		// share must land well under the staged one but need not halve.
		if r.ChainPCI[chain] >= stagedPCI {
			t.Errorf("%s: chained PCI %v not below staged %v", chain, r.ChainPCI[chain], stagedPCI)
		}
		if r.ChainLatency[chain] >= r.StagedLatency[chain] {
			t.Errorf("%s: chained per-item %v not below staged %v",
				chain, r.ChainLatency[chain], r.StagedLatency[chain])
		}
		// The batched chain overlaps stages across items AND drops the
		// host bounce between the two staged CallBatch passes, so it must
		// beat the E11-style staged ceiling.
		if r.ChainBatch[chain] >= r.StagedBatch[chain] {
			t.Errorf("%s: chain batch %v not below staged batches %v",
				chain, r.ChainBatch[chain], r.StagedBatch[chain])
		}
	}
}

func TestCatalogue(t *testing.T) {
	exps := All()
	if len(exps) != 20 {
		t.Fatalf("%d experiments", len(exps))
	}
	if _, err := ByID("e3"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("e99"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestTableCSV(t *testing.T) {
	tab := Table{Title: "T", Header: []string{"a", "b"}, Caption: "c"}
	tab.AddRow("x,y", 2) // comma forces quoting
	out := tab.CSV()
	for _, want := range []string{"# T\n", "a,b\n", "\"x,y\",2\n", "# c\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("CSV missing %q:\n%s", want, out)
		}
	}
}

func TestTableFormatting(t *testing.T) {
	tab := Table{Title: "T", Header: []string{"a", "bbbb"}, Caption: "c"}
	tab.AddRow("x", 3.14159)
	out := tab.String()
	for _, want := range []string{"T\n", "a", "bbbb", "x", "3.14", "c\n", "----"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}
