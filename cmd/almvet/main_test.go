package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"alm/internal/lint/fixer"
)

// TestRun pins the command-line contract CI gates on: exit codes,
// diagnostic order, and the -fix -diff dry run.
func TestRun(t *testing.T) {
	fixture := func(name string) string {
		abs, err := filepath.Abs(filepath.Join("..", "..", "internal", "lint", "testdata", "src", name, "flagged.go"))
		if err != nil {
			t.Fatal(err)
		}
		return abs
	}
	dropped, timer := fixture("droppederr"), fixture("timerflow")
	src, err := os.ReadFile(timer)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(timer + ".fixed")
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		args   []string
		exit   int
		stdout string
		stderr []string // line prefixes, in order
	}{
		{
			name: "findings",
			args: []string{"alm/internal/lint/testdata/src/droppederr"},
			exit: 2,
			stderr: []string{
				dropped + ":9:2: [droppederr] ",
				dropped + ":10:2: [droppederr] ",
				dropped + ":14:8: [droppederr] ",
				dropped + ":20:5: [droppederr] ",
				dropped + ":26:51: [droppederr] ",
				dropped + ":32:8: [droppederr] ",
			},
		},
		{
			name: "clean",
			args: []string{"alm/internal/sim"},
			exit: 0,
		},
		{
			name:   "diff-without-fix",
			args:   []string{"-diff", "alm/internal/sim"},
			exit:   2,
			stderr: []string{"almvet: -diff requires -fix"},
		},
		{
			name:   "missing-dir",
			args:   []string{"./no/such/dir"},
			exit:   1,
			stderr: []string{`almvet: package pattern "./no/such/dir": no such directory`},
		},
		{
			name:   "fix-diff",
			args:   []string{"-fix", "-diff", "alm/internal/lint/testdata/src/timerflow"},
			exit:   2,
			stdout: string(fixer.Unified(timer, src, golden)),
			// Findings without a fix are still reported.
			stderr: []string{
				timer + ":40:12: [timerflow] ",
				timer + ":49:3: [timerflow] ",
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(c.args, &stdout, &stderr); got != c.exit {
				t.Errorf("exit = %d, want %d; stderr:\n%s", got, c.exit, stderr.String())
			}
			if stdout.String() != c.stdout {
				t.Errorf("stdout:\n%s\nwant:\n%s", stdout.String(), c.stdout)
			}
			var lines []string
			if s := strings.TrimSuffix(stderr.String(), "\n"); s != "" {
				lines = strings.Split(s, "\n")
			}
			if len(lines) != len(c.stderr) {
				t.Fatalf("stderr has %d lines, want %d:\n%s", len(lines), len(c.stderr), stderr.String())
			}
			for i, prefix := range c.stderr {
				if !strings.HasPrefix(lines[i], prefix) {
					t.Errorf("stderr line %d = %q, want prefix %q", i+1, lines[i], prefix)
				}
			}
		})
	}

	if after, err := os.ReadFile(timer); err != nil || !bytes.Equal(after, src) {
		t.Errorf("-fix -diff rewrote %s (err %v)", timer, err)
	}
}
