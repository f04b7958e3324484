package mcu

import (
	"testing"

	"agilefpga/internal/algos"
	"agilefpga/internal/trace"
)

func TestTraceCapturesRequestLifecycle(t *testing.T) {
	c := newController(t, defaultCfg())
	log := &trace.Log{}
	c.SetTrace(log)
	f := algos.CRC32()
	install(t, c, f, "rle")

	if _, _, err := c.Execute(f.ID(), []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Execute(f.ID(), []byte{5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}

	if got := countKind(log, trace.KindRequest); got != 2 {
		t.Errorf("requests traced = %d", got)
	}
	if got := countKind(log, trace.KindMiss); got != 1 {
		t.Errorf("misses traced = %d", got)
	}
	if got := countKind(log, trace.KindHit); got != 1 {
		t.Errorf("hits traced = %d", got)
	}
	if got := countKind(log, trace.KindConfigure); got != 1 {
		t.Errorf("configures traced = %d", got)
	}
	// The configure event carries the codec and footprint.
	for _, e := range log.Events() {
		if e.Kind == trace.KindConfigure {
			if e.Detail != "rle" || e.Frames == 0 || e.Bytes == 0 {
				t.Errorf("configure event underspecified: %+v", e)
			}
		}
	}
	// Timestamps are monotone.
	evs := log.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].TimePS < evs[i-1].TimePS {
			t.Errorf("time went backwards at event %d", i)
		}
	}
}

func TestTraceCapturesEvictAndError(t *testing.T) {
	c := newController(t, defaultCfg())
	log := &trace.Log{}
	c.SetTrace(log)
	f := algos.GFMul()
	install(t, c, f, "none")
	if _, _, err := c.Execute(f.ID(), []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	c.Evict(f.ID())
	if countKind(log, trace.KindEvict) != 1 {
		t.Error("evict not traced")
	}
	if _, _, err := c.Execute(999, []byte{1}); err == nil {
		t.Fatal("expected error")
	}
	if countKind(log, trace.KindError) != 1 {
		t.Error("error not traced")
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	c := newController(t, defaultCfg())
	f := algos.GFMul()
	install(t, c, f, "none")
	// No SetTrace: must run fine (nil sink).
	if _, _, err := c.Execute(f.ID(), []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
}

// countKind tallies the log's events of kind k.
func countKind(log *trace.Log, k trace.Kind) int {
	n := 0
	for _, e := range log.Events() {
		if e.Kind == k {
			n++
		}
	}
	return n
}
