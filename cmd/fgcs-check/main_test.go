package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSeedsFlag builds the binary and runs it: a short sweep must exit 0
// and print the zero-divergence summary, and a seed count below one must be
// refused by an error naming the flag and the value rather than silently
// becoming the 200-seed default.
func TestSeedsFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the fgcs-check binary")
	}
	bin := filepath.Join(t.TempDir(), "fgcs-check")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building fgcs-check: %v\n%s", err, out)
	}
	cases := []struct {
		seeds string
		ok    bool
		msg   string
	}{
		{"2", true, "check passed: 2 seeds"},
		{"0", false, "-seeds 0"},
		{"-3", false, "-seeds -3"},
	}
	for _, c := range cases {
		out, err := exec.Command(bin, "-seeds", c.seeds).CombinedOutput()
		if (err == nil) != c.ok {
			t.Errorf("-seeds %s: err = %v, want success %v\n%s", c.seeds, err, c.ok, out)
		}
		if !strings.Contains(string(out), c.msg) || c.ok != strings.Contains(string(out), "zero divergence") {
			t.Errorf("-seeds %s: want %q and zero divergence = %v in:\n%s", c.seeds, c.msg, c.ok, out)
		}
	}
}
