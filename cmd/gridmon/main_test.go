package main

import (
	"bytes"
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/default.golden from the program's output")

const defaultGolden = "testdata/default.golden"

// TestDefaultReport pins gridmon's output under its default flags byte for
// byte: the forecast table, the fleet error quantiles and the capacity
// table are all functions of the seeded synthetic load. Running it twice
// in one process prints the same report. Rewrite the file with
// `go test ./cmd/gridmon/ -update`.
func TestDefaultReport(t *testing.T) {
	var first []byte
	for range 2 {
		var stdout, stderr bytes.Buffer
		if code := run(nil, &stdout, &stderr); code != 0 {
			t.Fatalf("gridmon: exit %d: %s", code, stderr.String())
		}
		if first != nil && !bytes.Equal(stdout.Bytes(), first) {
			t.Fatalf("second report differs from the first:\n%s\nfirst:\n%s", stdout.Bytes(), first)
		}
		first = stdout.Bytes()
	}
	if *update {
		if err := os.WriteFile(defaultGolden, first, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(defaultGolden)
	if err != nil {
		t.Fatalf("%v (create it with -update)", err)
	}
	if !bytes.Equal(first, want) {
		t.Errorf("gridmon printed\n%s\nwant (%s)\n%s", first, defaultGolden, want)
	}
}

// TestUsageErrors: an out-of-range flag is a usage error, exit 2.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"-nodes", "0"}, {"-samples", "1"}, {"-interval", "0"}, {"-bogus"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("gridmon %v: exit %d, want 2", args, code)
		}
	}
}
