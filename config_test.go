package agilefpga

import (
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"agilefpga/internal/client"
	"agilefpga/internal/cluster"
	"agilefpga/internal/mcu"
	"agilefpga/internal/router"
	"agilefpga/internal/server"
	"agilefpga/internal/trace"
)

// cardTrace is what one call sequence observably does to a card.
type cardTrace struct {
	Latency []time.Duration
	Phases  []map[string]time.Duration
	Hits    []bool
	Stats   Stats
}

// driftSequence drives the default 48-frame fabric through the mini
// OS's paths. tdes evicts md5 and then bitonic256, lands in bitonic256's
// frames, and leaves md5's untouched for a difference-based revival.
// Then gfmul8 is the oldest function, and evicting it leaves fir16 five
// free frames in two runs: scatter placement uses them, contiguous-only
// placement evicts tdes as well.
var driftSequence = []string{
	"bitonic256", "md5", "viterbi", "bitonic256", "viterbi", "tdes", "md5",
	"gfmul8", "crc32", "tdes", "md5", "viterbi", "crc32", "fir16", "tdes",
}

// runSequence calls driftSequence through call and records the trace.
func runSequence(t *testing.T, call func(string, []byte) (*Result, error), stats func() Stats) cardTrace {
	t.Helper()
	var tr cardTrace
	in := make([]byte, 64)
	for _, name := range driftSequence {
		res, err := call(name, in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tr.Latency = append(tr.Latency, res.Latency)
		tr.Phases = append(tr.Phases, res.Phases)
		tr.Hits = append(tr.Hits, res.Hit)
	}
	tr.Stats = stats()
	return tr
}

// traceOf runs the sequence on a card from New and on the one card of
// NewCluster(1, ModeReplicate, cfg).
func traceOf(t *testing.T, cfg Config) (single, clustered cardTrace) {
	t.Helper()
	cp, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.InstallAll(); err != nil {
		t.Fatal(err)
	}
	single = runSequence(t, cp.Call, cp.Stats)
	cl, err := NewCluster(1, ModeReplicate, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	clustered = runSequence(t, func(name string, in []byte) (*Result, error) {
		res, _, err := cl.Call(name, in)
		return res, err
	}, func() Stats { return cl.Stats().Stats })
	return single, clustered
}

// TestConfigSameThroughNewAndNewCluster: New and NewCluster build their
// cards from one conversion of Config, so every option acts the same
// through both. Each row's option must also change the sequence's
// outcome against the default Config, or the row could not catch the
// option being dropped.
func TestConfigSameThroughNewAndNewCluster(t *testing.T) {
	plain, _ := traceOf(t, Config{})
	for name, cfg := range map[string]Config{
		"ContiguousOnly": {ContiguousOnly: true},
		"Codec":          {Codec: "rle"},
		"WindowBytes":    {WindowBytes: 64},
		"DiffReload":     {DiffReload: true},
	} {
		t.Run(name, func(t *testing.T) {
			single, clustered := traceOf(t, cfg)
			if !reflect.DeepEqual(single, clustered) {
				t.Errorf("New and NewCluster disagree:\n New:        %+v\n NewCluster: %+v", single, clustered)
			}
			if reflect.DeepEqual(single, plain) {
				t.Errorf("the sequence does not exercise %s", name)
			}
		})
	}
}

// TestDesignCardOptionsTable: DESIGN §7 has one options table per
// struct below, each with one row per field, in declaration order, so a
// field added without a row fails here.
func TestDesignCardOptionsTable(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	for heading, typ := range map[string]reflect.Type{
		"### Card options (`mcu.Config`)":             reflect.TypeOf(mcu.Config{}),
		"#### Cluster options (`cluster.Options`)":    reflect.TypeOf(cluster.Options{}),
		"#### Server options (`server.Options`)":      reflect.TypeOf(server.Options{}),
		"#### Client options (`client.Options`)":      reflect.TypeOf(client.Options{}),
		"#### Router options (`router.Options`)":      reflect.TypeOf(router.Options{}),
		"#### Tracer options (`trace.TracerOptions`)": reflect.TypeOf(trace.TracerOptions{}),
	} {
		_, section, ok := strings.Cut(string(doc), "\n"+heading+"\n")
		if !ok {
			t.Errorf("DESIGN.md has no %q table", heading)
			continue
		}
		var rows []string
		for _, line := range strings.Split(section, "\n") {
			if strings.HasPrefix(line, "#") {
				break
			}
			if cells := strings.Split(line, "|"); len(cells) > 2 && strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
				rows = append(rows, strings.Trim(strings.TrimSpace(cells[1]), "`"))
			}
		}
		var fields []string
		for _, f := range reflect.VisibleFields(typ) {
			fields = append(fields, f.Name)
		}
		if !reflect.DeepEqual(rows, fields) {
			t.Errorf("DESIGN.md %s rows %v, %s fields %v", heading, rows, typ, fields)
		}
	}
}
