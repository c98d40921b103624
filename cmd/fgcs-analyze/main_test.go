package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestTruncatedShardFailsByName runs the fgcs-testbed -shard-dir ->
// fgcs-analyze -shards pipeline through the built binaries, then cuts one
// shard in half: at every GOMAXPROCS the analyzer must exit non-zero naming
// the shard, not print a Table 2 from what is left of it. A stray word
// before a flag exits 2 naming the word, not a report that ignored the flag.
func TestTruncatedShardFailsByName(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the fgcs-testbed and fgcs-analyze binaries")
	}
	dir := t.TempDir()
	testbedBin := filepath.Join(dir, "fgcs-testbed")
	analyzeBin := filepath.Join(dir, "fgcs-analyze")
	for bin, pkg := range map[string]string{testbedBin: "../fgcs-testbed", analyzeBin: "."} {
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, out)
		}
	}
	shards := filepath.Join(dir, "shards")
	if out, err := exec.Command(testbedBin, "-machines", "6", "-days", "5", "-shard-dir", shards, "-shard-size", "3").CombinedOutput(); err != nil {
		t.Fatalf("fgcs-testbed: %v\n%s", err, out)
	}
	analyze := func(procs string) (string, error) {
		cmd := exec.Command(analyzeBin, "-shards", shards, "-report", "table2")
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+procs)
		out, err := cmd.CombinedOutput()
		return string(out), err
	}
	// The report proper follows the progress line on stderr.
	report := func(out string) string {
		_, rest, _ := strings.Cut(out, "Table 2")
		return rest
	}
	whole, err := analyze("1")
	if err != nil || report(whole) == "" {
		t.Fatalf("intact shards: %v\n%s", err, whole)
	}
	stray := exec.Command(analyzeBin, "-shards", shards, "fig6", "-report", "table2")
	if out, _ := stray.CombinedOutput(); stray.ProcessState.ExitCode() != 2 ||
		!strings.Contains(string(out), `unexpected argument "fig6"`) || strings.Contains(string(out), "Table 2") {
		t.Errorf("stray word: exit %d, output %q; want exit 2 naming it", stray.ProcessState.ExitCode(), out)
	}
	for _, p := range []string{"2", "4"} {
		if out, err := analyze(p); err != nil || report(out) != report(whole) {
			t.Errorf("GOMAXPROCS=%s: err %v, report differs from serial:\n%s", p, err, out)
		}
	}

	victim := filepath.Join(shards, "shard-0001.fgcb")
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(victim, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"1", "2", "4"} {
		out, err := analyze(p)
		if err == nil {
			t.Errorf("GOMAXPROCS=%s: truncated shard accepted:\n%s", p, out)
		}
		if !strings.Contains(out, victim) || !strings.Contains(out, "truncated") || strings.Contains(out, "Table 2") {
			t.Errorf("GOMAXPROCS=%s: output %q, want an error naming %s and no report", p, out, victim)
		}
	}
}
