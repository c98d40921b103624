package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

// TestBadFlagLeavesExistingTraceUntouched builds the binary, writes a small
// trace, and then reruns it over the same -out with flags it must refuse:
// formats that no longer exist, a removed option, an unknown profile, an
// invalid fleet and a stray word, which must not end flag parsing quietly.
// Each run must fail without touching the file. A rerun with
// the original flags must reproduce it byte for byte.
func TestBadFlagLeavesExistingTraceUntouched(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the fgcs-testbed binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "fgcs-testbed")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building fgcs-testbed: %v\n%s", err, out)
	}
	out := filepath.Join(dir, "trace.fgcb")
	good := []string{"-machines", "2", "-days", "3", "-out", out}
	if msg, err := exec.Command(bin, good...).CombinedOutput(); err != nil {
		t.Fatalf("good run failed: %v\n%s", err, msg)
	}
	want, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.ReadFile(out)
	if err != nil {
		t.Fatalf("default -format is not loadable by the shared loader: %v", err)
	}
	if tr.Machines != 2 || len(tr.Events) == 0 {
		t.Fatalf("loaded %d machines, %d events", tr.Machines, len(tr.Events))
	}

	bad := []struct {
		args []string
		msg  string
	}{
		{[]string{"-format", "json"}, `unknown format "json"`},
		{[]string{"-format", "binary"}, `unknown format "binary"`},
		{[]string{"-format", "cvs"}, `unknown format "cvs"`},
		{[]string{"-shard-codec", "v1"}, "flag provided but not defined"},
		{[]string{"-profile", "office"}, `unknown profile "office"`},
		{[]string{"-machines", "-4"}, "need at least one machine"},
		{[]string{"oops", "-machines", "1", "-days", "1"}, `unexpected argument "oops"`},
	}
	for _, c := range bad {
		msg, err := exec.Command(bin, append(append([]string{}, good...), c.args...)...).CombinedOutput()
		if err == nil {
			t.Errorf("%v: accepted", c.args)
		}
		if !strings.Contains(string(msg), c.msg) {
			t.Errorf("%v: output %q, want it to contain %q", c.args, msg, c.msg)
		}
		if got, err := os.ReadFile(out); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%v: existing trace was modified (read err %v)", c.args, err)
		}
	}

	if msg, err := exec.Command(bin, good...).CombinedOutput(); err != nil {
		t.Fatalf("rerun failed: %v\n%s", err, msg)
	}
	if got, _ := os.ReadFile(out); !bytes.Equal(got, want) {
		t.Error("same flags, different bytes")
	}
}
