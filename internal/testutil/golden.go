package testutil

import (
	"encoding/json"
	"flag"
	"os"
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
