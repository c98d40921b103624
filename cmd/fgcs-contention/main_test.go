package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestStrayWordRefused builds the binary and gives it a word that is not a
// flag ahead of one that is: flag parsing would stop there and run the
// experiment without the later flag, so the binary must exit 2 naming the
// word and print no experiment.
func TestStrayWordRefused(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the fgcs-contention binary")
	}
	bin := filepath.Join(t.TempDir(), "fgcs-contention")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building fgcs-contention: %v\n%s", err, out)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-exp", "thresholds", "-measure", "150s", "-combos", "1", "seed", "-seed", "2")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if code := cmd.ProcessState.ExitCode(); code != 2 {
		t.Errorf("exit %d (%v), want 2", code, err)
	}
	if stdout.Len() != 0 {
		t.Errorf("printed an experiment:\n%s", stdout.Bytes())
	}
	if msg := stderr.String(); !strings.Contains(msg, `unexpected argument "seed"`) {
		t.Errorf("refusal %q does not name the stray word", msg)
	}
}
