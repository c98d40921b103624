package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSeedsFlag builds the binary and runs it: a short sweep must exit 0
// and print the zero-divergence summary, a seed count below one must be
// refused by an error naming the flag and the value rather than silently
// becoming the 200-seed default, and a stray word must exit 2 naming it.
func TestSeedsFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the fgcs-check binary")
	}
	bin := filepath.Join(t.TempDir(), "fgcs-check")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building fgcs-check: %v\n%s", err, out)
	}
	cases := []struct {
		args []string
		code int
		msg  string
	}{
		{[]string{"-seeds", "2"}, 0, "check passed: 2 seeds"},
		{[]string{"-seeds", "0"}, 1, "-seeds 0"},
		{[]string{"-seeds", "-3"}, 1, "-seeds -3"},
		{[]string{"-seeds", "2", "extra"}, 2, `unexpected argument "extra"`},
	}
	for _, c := range cases {
		cmd := exec.Command(bin, c.args...)
		out, err := cmd.CombinedOutput()
		if code := cmd.ProcessState.ExitCode(); code != c.code {
			t.Errorf("%v: exit %d (%v), want %d\n%s", c.args, code, err, c.code, out)
		}
		if ok := c.code == 0; !strings.Contains(string(out), c.msg) || ok != strings.Contains(string(out), "zero divergence") {
			t.Errorf("%v: want %q and zero divergence = %v in:\n%s", c.args, c.msg, ok, out)
		}
	}
}
