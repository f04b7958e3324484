package lib

import "testing"

// A test reference does not keep OnlyTests alive: the loader reads
// non-test files only.
func TestOnlyTests(t *testing.T) { OnlyTests() }
