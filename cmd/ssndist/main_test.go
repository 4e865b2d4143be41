package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// distArgs is a small two-axis sweep (8x9 = 72 points) used across tests.
func distArgs(extra ...string) []string {
	args := []string{
		"-axis", "n=1:64:8",
		"-axis", "l=0.5n:8n:9",
		"-shard-points", "16",
		"-q",
	}
	return append(args, extra...)
}

// TestRunInProcessDeterministic pins the CLI's core contract: the merged
// stream is the same bytes whether written to stdout or -o, and a -resume
// rerun over a complete checkpoint replays every shard byte-identically.
func TestRunInProcessDeterministic(t *testing.T) {
	var direct bytes.Buffer
	if err := run(distArgs(), &direct, os.Stderr); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(direct.String(), "\n")
	if lines != 72 {
		t.Fatalf("%d output lines, want 72", lines)
	}

	dir := t.TempDir()
	outPath := filepath.Join(dir, "sweep.ndjson")
	ckpt := filepath.Join(dir, "ckpt")
	var sink bytes.Buffer
	if err := run(distArgs("-o", outPath, "-checkpoint", ckpt), &sink, os.Stderr); err != nil {
		t.Fatal(err)
	}
	fromFile, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct.Bytes(), fromFile) {
		t.Fatal("-o output differs from the direct stream")
	}

	// Resume over the finished checkpoint: all shards replay, same bytes,
	// and the summary reports the reuse.
	var resumed, stderr bytes.Buffer
	args := []string{"-axis", "n=1:64:8", "-axis", "l=0.5n:8n:9",
		"-shard-points", "16", "-checkpoint", ckpt, "-resume"}
	if err := run(args, &resumed, &stderr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct.Bytes(), resumed.Bytes()) {
		t.Fatal("resumed stream differs from the original")
	}
	if !strings.Contains(stderr.String(), "(5 reused") {
		t.Errorf("summary should report 5 reused shards: %s", stderr.String())
	}
}

// TestResumeRejectsChangedGrid pins the fingerprint check end to end: a
// checkpoint written under one grid must not resume under another.
func TestResumeRejectsChangedGrid(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "ckpt")
	var buf bytes.Buffer
	if err := run(distArgs("-checkpoint", ckpt), &buf, os.Stderr); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	args := []string{"-axis", "n=1:128:8", "-shard-points", "16", "-q",
		"-checkpoint", ckpt, "-resume"}
	if err := run(args, &buf, os.Stderr); err == nil {
		t.Fatal("resume under a different grid succeeded")
	}
}

func TestRunErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"no axes", []string{"-q"}},
		{"resume without checkpoint", distArgs("-resume")},
		{"positional args", distArgs("stray")},
		{"bad axis syntax", []string{"-axis", "n=1:64", "-q"}},
		{"bad axis points", []string{"-axis", "n=1:64:many", "-q"}},
		{"fractional axis points", []string{"-axis", "n=1:64:8.5", "-q"}},
		{"trailing junk in axis points", []string{"-axis", "n=1:64:8x", "-q"}},
		{"unknown axis option", []string{"-axis", "n=1:64:8:banana", "-q"}},
		{"domain violation", []string{"-axis", "l=0:4n:8", "-q"}},
		{"unknown axis name", []string{"-axis", "zz=1:2:3", "-q"}},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		if err := run(tc.args, &buf, &buf); err == nil {
			t.Errorf("%s: run succeeded, want error", tc.name)
		}
	}
}
