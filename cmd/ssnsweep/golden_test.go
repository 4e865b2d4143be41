package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/*.golden from the current output")

// TestSweepGolden pins the text output and the -o CSV byte for byte: a
// refined two-axis grid (the CI smoke's), a size axis (per-point
// re-extraction) and a single-axis -verify run (transistor-level
// simulation at every point). Regenerate on purpose with
// go test ./cmd/ssnsweep -run TestSweepGolden -update-golden.
func TestSweepGolden(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"refined-grid", []string{"-axis", "n=2:32:8", "-axis", "c=0.5p:40p:5:log", "-refine", "1"}},
		{"size", []string{"-axis", "size=0.5:4:5"}},
		{"verify-n", []string{"-var", "n", "-from", "4", "-to", "16", "-points", "4", "-verify"}},
		{"verify-tr", []string{"-var", "tr", "-from", "0.5n", "-to", "2n", "-points", "3", "-verify"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "sweep.csv")
			var out strings.Builder
			if err := run(append(tc.args, "-o", path), &out); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			got := strings.ReplaceAll(out.String(), path, "sweep.csv") + "--- sweep.csv ---\n" + string(data)
			golden := filepath.Join("testdata", tc.name+".golden")
			if *updateGolden {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("output differs from %s:\n%s\nwant:\n%s", golden, got, want)
			}
		})
	}
}
