package main

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"ssnkit/internal/oracle"
	"ssnkit/internal/spice"
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

// TestRunVerboseLogsEveryPoint checks that -v prints each point's line from
// the one campaign pass, exactly as Check reports that point, followed by
// the unchanged report.
func TestRunVerboseLogsEveryPoint(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-v", "-points", "64", "-seed", "1"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	got := out.String()
	for i := 0; i < 64; i++ {
		pt, ok := oracle.Generate(1, i)
		if !ok {
			t.Fatalf("generator exhausted at index %d", i)
		}
		want := fmt.Sprintf("#%d %s\n", i, oracle.Check(pt, spice.Options{}))
		line, rest, found := strings.Cut(got, "\n")
		if !found || line+"\n" != want {
			t.Fatalf("verbose line %d = %q, want %q", i, line, want)
		}
		got = rest
	}
	report, err := os.ReadFile("testdata/points64-seed1.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(report) {
		t.Fatalf("report after the verbose lines differs from the golden:\n%s\nwant:\n%s", got, report)
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
