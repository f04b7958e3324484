package testutil

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/ from this tree's output")

// GoldenJSON holds got to the JSON object stored at path, entry by entry.
// With -update it rewrites the file instead; an equivalence golden is
// captured at the commit whose behaviour it pins, not at a later one.
func GoldenJSON[V comparable](t *testing.T, path string, got map[string]V) {
	t.Helper()
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]V)
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d entries produced, golden holds %d", path, len(got), len(want))
	}
	for key, g := range got {
		if w, ok := want[key]; !ok || w != g {
			t.Errorf("%s: %s = %+v, golden %+v", path, key, g, w)
		}
	}
}

// maxGoldenDiffs caps the differing lines GoldenBytes reports, so a
// table that moved everywhere names its first rows rather than
// dumping both files.
const maxGoldenDiffs = 5

// GoldenBytes holds got to the file at path byte for byte. With -update
// it rewrites the file instead. A mismatch reports the first differing
// lines by number, each with its got and want text; a missing file
// fails the test.
func GoldenBytes(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines := strings.Split(string(got), "\n")
	wantLines := strings.Split(string(want), "\n")
	var b strings.Builder
	shown := 0
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		g, w := lineAt(gotLines, i), lineAt(wantLines, i)
		if g == w {
			continue
		}
		if shown == maxGoldenDiffs {
			b.WriteString("\n  ...")
			break
		}
		fmt.Fprintf(&b, "\n  line %d\n    got:  %s\n    want: %s", i+1, g, w)
		shown++
	}
	t.Errorf("%s differs from this tree's output (-update rewrites it):%s", path, b.String())
}

// lineAt returns line i, or a marker when the text has fewer lines.
func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "(no line)"
}
