package main

import (
	"os"
	"strings"
	"testing"
)

// TestRunSmallCampaign pins the report bytes of a 64-point seed-1 campaign.
// Regenerate on purpose only, with
// go run ./cmd/ssnoracle -points 64 -seed 1 > cmd/ssnoracle/testdata/points64-seed1.golden
func TestRunSmallCampaign(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-points", "64", "-seed", "1"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	want, err := os.ReadFile("testdata/points64-seed1.golden")
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Fatalf("report differs from the golden:\n%s\nwant:\n%s", out.String(), want)
	}
}

func TestRunVerboseLogsEveryPoint(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-points", "5", "-v"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, want := range []string{"#0 ", "#4 "} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("verbose output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunRejectsPositionalArgs(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"extra"}, &out); err == nil {
		t.Fatal("positional argument accepted")
	}
}

func TestRunRejectsBadFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-nope"}, &out); err == nil {
		t.Fatal("unknown flag accepted")
	}
}
