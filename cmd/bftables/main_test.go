package main

import (
	"bytes"
	"errors"
	"os"
	"testing"
)

// TestTablesGolden regenerates every experiment and byte-compares the
// transcript with the committed tables_output.txt: the paper's results
// are part of the repository's output contract.
func TestTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full table regeneration skipped in -short mode")
	}
	want, err := os.ReadFile("../../tables_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(&got, false, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("output differs from tables_output.txt at line %d:\n got %q\nwant %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output has %d lines, tables_output.txt %d", len(gl), len(wl))
	}
}

// An unknown experiment name selects nothing and is reported as such.
func TestRunNoMatch(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, true, []string{"e99"}); !errors.Is(err, errNoMatch) {
		t.Errorf("run(e99) error = %v, want errNoMatch", err)
	}
	if out.Len() != 0 {
		t.Errorf("run(e99) wrote %d bytes", out.Len())
	}
}
