package core

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadJSONLines checks that arbitrary input never panics the JSON-lines
// parser, and that anything it accepts survives a write/read round trip.
func FuzzReadJSONLines(f *testing.F) {
	f.Add(`{"goal":"g","actions":["a","b"]}`)
	f.Add(`{"goal":"g","actions":["a"]}` + "\n" + `{"goal":"h","actions":["a","c"]}`)
	f.Add(`{"goal":"","actions":[]}`)
	f.Add(`not json at all`)
	f.Add(`{"goal":"g","actions":["a",` + "\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, input string) {
		lib, vocab, err := ReadJSONLines(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteJSONLines(&buf, lib, vocab); err != nil {
			t.Fatalf("accepted library failed to serialize: %v", err)
		}
		lib2, _, err := ReadJSONLines(&buf)
		if err != nil {
			t.Fatalf("own output rejected: %v", err)
		}
		if lib2.NumImplementations() != lib.NumImplementations() {
			t.Fatalf("round trip changed size: %d -> %d",
				lib.NumImplementations(), lib2.NumImplementations())
		}
	})
}
