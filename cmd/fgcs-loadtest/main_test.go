package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// build compiles the binary into a fresh temporary directory.
func build(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the fgcs-loadtest binary")
	}
	bin := filepath.Join(t.TempDir(), "fgcs-loadtest")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building fgcs-loadtest: %v\n%s", err, out)
	}
	return bin
}

// TestStrayWordRefused gives the binary arguments it would otherwise drop
// ahead of -out: a word that is not a flag (flag parsing would stop there
// and run the load without writing the result), a flag a preset mode
// does not read, and -forecast, which names no mode (the replay evaluation
// is the root package's e23-forecast-replay artefact row). Each must exit
// 2 naming what it refused, run nothing and write no file.
func TestStrayWordRefused(t *testing.T) {
	bin := build(t)
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"StrayWord", []string{"-nodes", "200", "-shards", "1", "-discover-ops", "5", "json"}, `unexpected argument "json"`},
		{"SmokeIgnoresFlag", []string{"-smoke", "-nodes", "5", "-shards", "3"}, "-smoke is a preset and ignores -nodes"},
		{"NoForecastMode", []string{"-forecast"}, "flag provided but not defined: -forecast"},
	} {
		t.Run(c.name, func(t *testing.T) {
			result := filepath.Join(t.TempDir(), "result.json")
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(bin, append(c.args, "-out", result)...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			if code := cmd.ProcessState.ExitCode(); code != 2 {
				t.Errorf("exit %d (%v), want 2", code, err)
			}
			if stdout.Len() != 0 {
				t.Errorf("ran a load:\n%s", stdout.Bytes())
			}
			if msg := stderr.String(); !strings.Contains(msg, c.want) {
				t.Errorf("refusal %q does not contain %q", msg, c.want)
			}
			if _, err := os.Stat(result); !os.IsNotExist(err) {
				t.Errorf("-out %s was written (stat err %v)", result, err)
			}
		})
	}
}

// TestFailedRunRemovesTempWAL runs the crash phase without -wal-dir, so the
// run makes a temporary WAL root, and misses an impossible SLO: the binary
// must exit 1 and leave nothing behind in TMPDIR.
func TestFailedRunRemovesTempWAL(t *testing.T) {
	bin := build(t)
	tmp := t.TempDir()
	cmd := exec.Command(bin, "-nodes", "2000", "-shards", "2", "-discover-ops", "20", "-crash", "-slo-discover-p99", "1ns")
	cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
	out, err := cmd.CombinedOutput()
	if code := cmd.ProcessState.ExitCode(); code != 1 {
		t.Fatalf("exit %d (%v), want 1\n%s", code, err, out)
	}
	if !bytes.Contains(out, []byte("SLO VIOLATION")) {
		t.Errorf("exit 1 without an SLO violation:\n%s", out)
	}
	left, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("TMPDIR keeps %s after the run", e.Name())
	}
}
