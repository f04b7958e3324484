package agilefpga

import (
	"bytes"
	"strings"
	"testing"
)

func TestFacadeQuickstart(t *testing.T) {
	cp, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.InstallAll(); err != nil {
		t.Fatal(err)
	}
	in := []byte("sixteen byte in!")
	res, err := cp.Call("aes128", in)
	if err != nil {
		t.Fatal(err)
	}
	host, _, err := cp.RunHost("aes128", in)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Output, host) {
		t.Error("card and host disagree")
	}
	if res.Hit {
		t.Error("first call cannot hit")
	}
	if res.Latency <= 0 {
		t.Error("no latency")
	}
	if res.Phases["exec"] <= 0 || res.Phases["pci"] <= 0 {
		t.Errorf("phases incomplete: %v", res.Phases)
	}

	res2, err := cp.Call("aes128", in)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Hit {
		t.Error("second call must hit")
	}
	st := cp.Stats()
	if st.Requests != 2 || st.Hits != 1 || st.HitRate != 0.5 {
		t.Errorf("stats = %+v", st)
	}
	if err := cp.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestFacadeFunctions(t *testing.T) {
	fns := Functions()
	if len(fns) != 16 {
		t.Fatalf("%d functions", len(fns))
	}
	for _, f := range fns {
		if f.Name == "" || f.Frames <= 0 || f.BlockBytes <= 0 {
			t.Errorf("degenerate function info %+v", f)
		}
	}
}

func TestFacadeResidencyControls(t *testing.T) {
	cp, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Install("crc32"); err != nil {
		t.Fatal(err)
	}
	if r, _ := cp.Resident("crc32"); r {
		t.Error("resident before first call")
	}
	if _, err := cp.Call("crc32", []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if r, _ := cp.Resident("crc32"); !r {
		t.Error("not resident after call")
	}
	cfgd, total := cp.Utilization()
	if cfgd == 0 || total == 0 {
		t.Errorf("utilization %d/%d", cfgd, total)
	}
	if ok, _ := cp.Evict("crc32"); !ok {
		t.Error("evict failed")
	}
	if r, _ := cp.Resident("crc32"); r {
		t.Error("still resident after evict")
	}
	if _, err := cp.Resident("nope"); err == nil {
		t.Error("unknown name accepted")
	}
	if _, err := cp.Evict("nope"); err == nil {
		t.Error("unknown name accepted")
	}
	if err := cp.Install("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestFacadeConfigKnobs(t *testing.T) {
	cp, err := New(Config{Rows: 16, Cols: 8, Codec: "rle", Policy: "fifo", ContiguousOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	s := cp.String()
	if !strings.Contains(s, "rle") || !strings.Contains(s, "fifo") {
		t.Errorf("String = %q", s)
	}
	if _, err := New(Config{Codec: "nope"}); err == nil {
		t.Error("bad codec accepted")
	}
	if _, err := New(Config{Policy: "clock"}); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := New(Config{Rows: 1, Cols: 1}); err == nil {
		t.Error("bad geometry accepted")
	}
}

func TestFacadeBatchAndFeatures(t *testing.T) {
	cp, err := New(Config{DiffReload: true, Prefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Install("tdes"); err != nil {
		t.Fatal(err)
	}
	inputs := [][]byte{[]byte("8bytes!!"), []byte("morebyte"), []byte("lastone!")}
	batch, err := cp.CallBatch("tdes", inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Outputs) != 3 || batch.Hits != 2 {
		t.Errorf("batch = %+v", batch)
	}
	if batch.Latency > batch.SequentialLatency {
		t.Error("batching slower than sequential")
	}
	// Exercise the diff flow through the facade.
	if _, err := cp.Evict("tdes"); err != nil {
		t.Fatal(err)
	}
	if _, err := cp.Call("tdes", inputs[0]); err != nil {
		t.Fatal(err)
	}
	if cp.Stats().FramesSkipped == 0 {
		t.Error("diff reload inert through the facade")
	}
	if _, err := cp.CallBatch("nope", inputs); err == nil {
		t.Error("unknown function accepted")
	}
}

func TestFacadeResetStats(t *testing.T) {
	cp, _ := New(Config{})
	_ = cp.Install("gfmul8")
	if _, err := cp.Call("gfmul8", []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	cp.ResetStats()
	if cp.Stats().Requests != 0 {
		t.Error("reset failed")
	}
}

// TestFacadeCluster drives the public cluster surface: sync calls,
// async Submit/Wait, Serve over a mixed job list, the decode-cache
// stats, and error paths for unknown function names.
func TestFacadeCluster(t *testing.T) {
	cl, err := NewCluster(2, ModeAffinity, Config{
		Rows: 32, Cols: 40, DecodeCacheBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Cards() != 2 || cl.Mode() != ModeAffinity {
		t.Fatalf("cards=%d mode=%q", cl.Cards(), cl.Mode())
	}

	in := []byte("0123456789abcdef")
	res, card, err := cl.Call("aes128", in)
	if err != nil {
		t.Fatal(err)
	}
	if card < 0 || card > 1 || len(res.Output) == 0 {
		t.Fatalf("card=%d output=%d bytes", card, len(res.Output))
	}
	if _, _, err := cl.Call("nope", in); err == nil {
		t.Error("unknown function accepted by Call")
	}

	p := cl.Submit("crc32", []byte{1, 2, 3, 4})
	if _, _, err := p.Wait(); err != nil {
		t.Fatalf("async crc32: %v", err)
	}
	if _, _, err := cl.Submit("nope", in).Wait(); err == nil {
		t.Error("unknown function accepted by Submit")
	}

	jobs := make([]Job, 40)
	names := []string{"aes128", "sha256", "crc32", "des"}
	for i := range jobs {
		jobs[i] = Job{Function: names[i%len(names)], Input: in}
	}
	sr, err := cl.Serve(jobs, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range sr.Outputs {
		if len(out) == 0 {
			t.Fatalf("job %d returned no output", i)
		}
	}
	if _, err := cl.Serve([]Job{{Function: "nope"}}, 1); err == nil {
		t.Error("unknown function accepted by Serve")
	}

	st := cl.Stats()
	if st.Requests < uint64(len(jobs))+2 {
		t.Errorf("requests=%d", st.Requests)
	}
	if len(st.PerCardRequests) != 2 {
		t.Errorf("per-card stats for %d cards", len(st.PerCardRequests))
	}
	if err := cl.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestFacadeDecodeCacheStats checks that the decoded-frame cache is
// reachable and reported through the single-card facade.
func TestFacadeDecodeCacheStats(t *testing.T) {
	cp, err := New(Config{DecodeCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Install("aes128"); err != nil {
		t.Fatal(err)
	}
	in := []byte("0123456789abcdef")
	if _, err := cp.Call("aes128", in); err != nil {
		t.Fatal(err)
	}
	if _, err := cp.Evict("aes128"); err != nil {
		t.Fatal(err)
	}
	res, err := cp.Call("aes128", in)
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Phases["decompress"]; d != 0 {
		t.Errorf("cached reload spent %v decompressing", d)
	}
	if res.Phases["cache"] == 0 {
		t.Error("cached reload reported no cache phase")
	}
	st := cp.Stats()
	if st.DecompCacheHits != 1 || st.DecompCacheBytes == 0 {
		t.Errorf("cache stats: hits=%d bytes=%d", st.DecompCacheHits, st.DecompCacheBytes)
	}
}
