package exp

import (
	"os"
	"path/filepath"
	"testing"
)

// TestVirtualTimeGolden pins the deterministic card-side tables that
// between them cross every job shape of the host driver — single calls
// (E1, E5), batches (E11), cold loads under both configuration models
// (E18) and chains and chain batches (E20) — byte for byte. The files
// under testdata were captured before the call/batch/chain lanes were
// merged into one runner; a virtual-time figure may only move in a PR
// that says so and regenerates the file with
//
//	go run ./cmd/agilebench -exp e20 -format csv > internal/exp/testdata/e20.csv
func TestVirtualTimeGolden(t *testing.T) {
	for _, id := range []string{"e1", "e5", "e11", "e18", "e20"} {
		id := id
		t.Run(id, func(t *testing.T) {
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			tab, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", id+".csv"))
			if err != nil {
				t.Fatal(err)
			}
			// agilebench prints the table with Println.
			if got := tab.CSV() + "\n"; got != string(want) {
				t.Errorf("%s moved in virtual time\n--- got\n%s--- want\n%s", id, got, want)
			}
		})
	}
}
