package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The host this benchmark runs on is a small shared VM whose speed shifts by
// a third within an hour (identical runs read 1055 and 1444 place ops/s fifty
// minutes apart) and by a fifth from one ten-second stretch to the next, so
// clock readings of one commit do not repeat from one set of runs to the
// next. A run therefore times a fixed reference kernel between its sub-windows
// and around its set-ups, and scales its end-to-end times by the median of
// those: what is reported is time on the reference host, on which the kernel
// takes calibRefMS. The clock readings are printed beside them and are the
// bench.clock_* layer metrics; README.md has what the scaling buys on each
// workload, and where it buys nothing.
//
// The kernel is JSON encode and decode of fixed records on every CPU at once
// (the program under test uses them all, and neighbours slow them unequally):
// branchy, allocating standard-library code that loses speed to a busy
// neighbour as the program under test does. Pointer chasing, streaming and
// register-only loops were tried and keep their time while the program loses
// a third of its speed. It runs in a process of its own, the same binary
// started with calibEnv set, so nothing the program under test does to its
// heap, its collector or its caches reaches it; its collector runs between
// samples only.
const (
	calibEnv   = "FGCS_BENCH_CALIBRATOR"
	calibRefMS = 10.0
)

type calibRecord struct {
	Name  string  `json:"name"`
	Addr  string  `json:"addr"`
	State string  `json:"state"`
	Load  float64 `json:"load"`
	Gen   int64   `json:"gen"`
	AtMS  int64   `json:"at_ms"`
}

// calibKernelMS does the round trip of batch four times and returns the
// milliseconds that took.
func calibKernelMS(batch []calibRecord) float64 {
	t0 := time.Now()
	for rep := 0; rep < 4; rep++ {
		b, err := json.Marshal(batch)
		var back []calibRecord
		if err == nil {
			err = json.Unmarshal(b, &back)
		}
		if err != nil || len(back) != len(batch) {
			panic("bench: calibration kernel: JSON round trip of fixed records failed")
		}
	}
	return float64(time.Since(t0)) / float64(time.Millisecond)
}

// serveCalibration is the calibrator process: for every line on standard
// input it runs the kernel on every CPU at once and prints the milliseconds,
// averaged over the CPUs. It ends when standard input does.
func serveCalibration() {
	batch := make([]calibRecord, 1000)
	for i := range batch {
		batch[i] = calibRecord{Name: fmt.Sprintf("calib-%07d", i), Addr: "10.0.0.1:7", State: "S1(full)", Load: float64(i) / 1000, Gen: int64(i), AtMS: 1_700_000_000_000}
	}
	debug.SetGCPercent(-1)
	cpus := runtime.NumCPU()
	sample := func() float64 {
		var wg sync.WaitGroup
		times := make([]float64, cpus)
		for c := range times {
			wg.Add(1)
			go func() {
				defer wg.Done()
				times[c] = calibKernelMS(batch)
			}()
		}
		wg.Wait()
		runtime.GC()
		var mean float64
		for _, t := range times {
			mean += t / float64(cpus)
		}
		return mean
	}
	sample() // grows the heap to its working size, so the first sample is like the rest
	in := bufio.NewReader(os.Stdin)
	fmt.Println("ready")
	for {
		if _, err := in.ReadString('\n'); err != nil {
			return
		}
		fmt.Println(strconv.FormatFloat(sample(), 'g', -1, 64))
	}
}

// calibrator is the parent's handle on the calibrator process.
type calibrator struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

func startCalibrator() (*calibrator, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), calibEnv+"=1")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &calibrator{cmd: cmd, in: in, out: bufio.NewReader(out)}
	if line, err := c.out.ReadString('\n'); err != nil || strings.TrimSpace(line) != "ready" {
		c.stop()
		return nil, fmt.Errorf("calibrator did not start: read %q: %v", line, err)
	}
	return c, nil
}

// sample runs the kernel once and returns its milliseconds.
func (c *calibrator) sample() (float64, error) {
	if _, err := io.WriteString(c.in, "\n"); err != nil {
		return 0, fmt.Errorf("calibrator: %w", err)
	}
	line, err := c.out.ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("calibrator: %w", err)
	}
	ms, err := strconv.ParseFloat(strings.TrimSpace(line), 64)
	if err != nil || ms <= 0 {
		return 0, fmt.Errorf("calibrator answered %q", line)
	}
	return ms, nil
}

// stop ends the calibrator process and waits for it.
func (c *calibrator) stop() {
	c.in.Close()
	_ = c.cmd.Wait() // it has nothing left to report; the run's samples are in
}
