package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestStrayWordRefused builds the binary and gives it a word that is not a
// flag ahead of -out: flag parsing would stop there and run the load
// without writing the result, so the binary must exit 2 naming the word,
// run nothing and write no file.
func TestStrayWordRefused(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the fgcs-loadtest binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "fgcs-loadtest")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building fgcs-loadtest: %v\n%s", err, out)
	}
	result := filepath.Join(dir, "result.json")
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-nodes", "200", "-shards", "1", "-discover-ops", "5", "json", "-out", result)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if code := cmd.ProcessState.ExitCode(); code != 2 {
		t.Errorf("exit %d (%v), want 2", code, err)
	}
	if stdout.Len() != 0 {
		t.Errorf("ran a load:\n%s", stdout.Bytes())
	}
	if msg := stderr.String(); !strings.Contains(msg, `unexpected argument "json"`) {
		t.Errorf("refusal %q does not name the stray word", msg)
	}
	if _, err := os.Stat(result); !os.IsNotExist(err) {
		t.Errorf("-out %s after the stray word was written (stat err %v)", result, err)
	}
}
