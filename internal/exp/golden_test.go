package exp

import (
	"path/filepath"
	"testing"

	"agilefpga/internal/testutil"
)

// wallClock names the experiments whose tables read the wall clock and
// so cannot be pinned byte for byte.
var wallClock = map[string]bool{"e16": true, "e23": true}

// TestVirtualTimeGolden pins every virtual-clock table in the catalogue
// byte for byte against testdata/<id>.csv, so a change anywhere in the
// cycle model shows as the table rows it moved. A virtual-time figure
// may only move in a change that says so and rewrites the files with
//
//	go test ./internal/exp -run Golden -update
func TestVirtualTimeGolden(t *testing.T) {
	for _, e := range All() {
		if wallClock[e.ID] {
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			tab, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			// The trailing newline matches agilebench's Println.
			testutil.GoldenBytes(t, filepath.Join("testdata", e.ID+".csv"), []byte(tab.CSV()+"\n"))
		})
	}
}
