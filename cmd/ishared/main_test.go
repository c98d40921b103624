package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/ishare"
)

var listenRE = regexp.MustCompile(`registry listening on (\S+)`)

// registryProc is one ishared registry process under test.
type registryProc struct {
	cmd    *exec.Cmd
	addr   string
	stdout *bufio.Reader
	out    strings.Builder
}

func startRegistryProc(t *testing.T, bin string, args ...string) *registryProc {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-mode", "registry", "-addr", "127.0.0.1:0"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &registryProc{cmd: cmd, stdout: bufio.NewReader(stdout)}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
	deadline := time.Now().Add(10 * time.Second)
	for p.addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("registry never announced its address; output so far:\n%s", p.out.String())
		}
		line, err := p.stdout.ReadString('\n')
		p.out.WriteString(line)
		if m := listenRE.FindStringSubmatch(line); m != nil {
			p.addr = m[1]
		}
		if err != nil {
			t.Fatalf("registry exited before listening (err %v); output:\n%s", err, p.out.String())
		}
	}
	return p
}

// terminate sends SIGTERM and waits for a clean drained exit.
func (p *registryProc) terminate(t *testing.T) string {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		rest, _ := io.ReadAll(p.stdout)
		p.out.Write(rest)
		done <- p.cmd.Wait()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("registry exited uncleanly on SIGTERM: %v\n%s", err, p.out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("registry did not exit within 10s of SIGTERM\n%s", p.out.String())
	}
	return p.out.String()
}

// TestModeRefusesUnreadFlags: a flag the chosen mode does not read exits 2
// naming it before anything listens, rather than being dropped.
func TestModeRefusesUnreadFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the ishared binary")
	}
	bin := filepath.Join(t.TempDir(), "ishared")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building ishared: %v\n%s", err, out)
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-mode", "demo", "-wal-dir", t.TempDir()}, "-mode demo ignores -wal-dir"},
		{[]string{"-mode", "node", "-max-inflight", "4"}, "-mode node ignores -max-inflight"},
		{[]string{"-mode", "registry", "-name", "lab-1"}, "-mode registry ignores -name"},
	} {
		// A mode that took the flag would serve until killed.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		cmd := exec.CommandContext(ctx, bin, c.args...)
		out, _ := cmd.CombinedOutput()
		cancel()
		if code := cmd.ProcessState.ExitCode(); code != 2 || !strings.Contains(string(out), c.want) {
			t.Errorf("%v: exit %d, output %q; want exit 2 and %q", c.args, code, out, c.want)
		}
	}
}

// TestRegistrySIGTERMDrainRestart is the end-to-end graceful-shutdown
// contract of the daemon: a SIGTERM'd durable registry exits cleanly
// after draining, and a fresh process over the same -wal-dir serves an
// identical node set. An address given without -addr is refused with exit
// 2 before anything listens, not served with the flags after it dropped.
func TestRegistrySIGTERMDrainRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the ishared binary")
	}
	bin := filepath.Join(t.TempDir(), "ishared")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building ishared: %v\n%s", err, out)
	}
	walDir := t.TempDir()

	stray := exec.Command(bin, "-mode", "registry", "127.0.0.1:0", "-wal-dir", walDir)
	if out, _ := stray.CombinedOutput(); stray.ProcessState.ExitCode() != 2 || !strings.Contains(string(out), `unexpected argument "127.0.0.1:0"`) {
		t.Fatalf("stray address: exit %d, output %q; want exit 2 naming it", stray.ProcessState.ExitCode(), out)
	}

	p1 := startRegistryProc(t, bin, "-wal-dir", walDir, "-ttl", "1m")
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	c := &ishare.Client{Shards: []string{p1.addr}, Timeout: 2 * time.Second}
	var fleet []ishare.NodeDigest
	for i := 0; i < 20; i++ {
		fleet = append(fleet, ishare.NodeDigest{
			Name: fmt.Sprintf("lab-%02d", i), Addr: fmt.Sprintf("10.2.0.%d:70", i),
			State: "S1(full)", Load: float64(i) / 20, Gen: int64(i + 1),
			UnixMS: time.Now().UnixMilli(),
		})
	}
	if err := c.RegisterBatch(ctx, p1.addr, fleet); err != nil {
		t.Fatalf("register against live registry: %v", err)
	}
	before, err := c.ListShard(ctx, p1.addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := p1.terminate(t)
	if !strings.Contains(out, "registry drained and stopped") {
		t.Fatalf("no drain confirmation in output:\n%s", out)
	}

	p2 := startRegistryProc(t, bin, "-wal-dir", walDir, "-ttl", "1m")
	if !strings.Contains(p2.out.String(), "recovered") {
		t.Fatalf("restart did not report WAL recovery:\n%s", p2.out.String())
	}
	c2 := &ishare.Client{Shards: []string{p2.addr}, Timeout: 2 * time.Second}
	after, err := c2.ListShard(ctx, p2.addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := func(ns []ishare.NodeInfo) []string {
		out := make([]string, len(ns))
		for i, n := range ns {
			out[i] = fmt.Sprintf("%s|%s|%s|%.4f|%d|%d", n.Name, n.Addr, n.State, n.Load, n.Gen, n.LastSeenMS)
		}
		sort.Strings(out)
		return out
	}
	b, a := key(before), key(after)
	if len(a) != len(b) {
		t.Fatalf("restart serves %d nodes, want %d", len(a), len(b))
	}
	for i := range b {
		if a[i] != b[i] {
			t.Fatalf("state differs after drained restart:\n got %s\nwant %s", a[i], b[i])
		}
	}
	p2.terminate(t)
}
