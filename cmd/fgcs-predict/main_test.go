package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/testbed"
)

// TestReportFromTraceFile builds the binary, hands it a small v2 trace and
// asks for every report section: all five must print, the same flags must
// print the same bytes twice, a missing -trace file must fail naming the
// file, and -migrate without -sched, or a stray word before a flag, must be
// refused with exit 2 before anything runs.
func TestReportFromTraceFile(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the fgcs-predict binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "fgcs-predict")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building fgcs-predict: %v\n%s", err, out)
	}

	// 50 days: the learning curve's longest training prefix is 42.
	cfg := testbed.DefaultConfig()
	cfg.Machines = 3
	cfg.Days = 50
	tr, err := testbed.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "trace.fgcb")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteBlocks(f, nil); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	args := []string{"-trace", path, "-sched", "-migrate", "-curve", "-calibration", "-windows", "-jobs", "60"}
	run := func() []byte {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("fgcs-predict %v: %v\n%s", args, err, stderr.Bytes())
		}
		return stdout.Bytes()
	}
	first := run()
	for _, section := range []string{
		"Predictor evaluation",
		"Learning curve",
		"Reliability diagram",
		"Window sensitivity",
		"Proactive scheduling",
		"+migration",
	} {
		if !strings.Contains(string(first), section) {
			t.Errorf("report lacks %q:\n%s", section, first)
		}
	}
	if second := run(); !bytes.Equal(first, second) {
		t.Errorf("same flags, different reports:\n%s\n---\n%s", first, second)
	}

	missing := filepath.Join(dir, "no-such.fgcb")
	msg, err := exec.Command(bin, "-trace", missing).CombinedOutput()
	if err == nil {
		t.Errorf("missing trace file accepted:\n%s", msg)
	}
	if !strings.Contains(string(msg), missing) {
		t.Errorf("error %q does not name %s", msg, missing)
	}

	for _, c := range []struct {
		args  []string
		names []string
	}{
		{[]string{"-trace", path, "-migrate"}, []string{"-migrate", "-sched"}},
		{[]string{"-trace", path, "sched", "-sched"}, []string{`unexpected argument "sched"`}},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, c.args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err = cmd.Run()
		if code := cmd.ProcessState.ExitCode(); code != 2 {
			t.Errorf("%v: exit %d (%v), want 2", c.args, code, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v printed a report:\n%s", c.args, stdout.Bytes())
		}
		for _, name := range c.names {
			if msg := stderr.String(); !strings.Contains(msg, name) {
				t.Errorf("%v: refusal %q does not name %s", c.args, msg, name)
			}
		}
	}
}
