package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// The benchmark's names live in one place, BENCHMARK.json at the repository
// root, which the driver reads too. Every workload emits every metric of the
// pass it runs: a layer the workload does not exercise reads 0, which is the
// "no change" prediction of README.md made checkable. A metric the file
// does not name fails the run that emits it.

const (
	wlDiscover = "cp-discover"
	wlIngest   = "cp-ingest"
	wlGenerate = "trace-generate"
	wlAnalyze  = "trace-analyze"
)

type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "higher" or "lower"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen; baseline/aa.json is where it was read from.
	Bound float64 `json:"bound,omitempty"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchSpec is BENCHMARK.json. end_to_end is what a user of either path
// sees, measured with tracing off. One op is a place (cp-discover), a
// HeartbeatBatch of up to 1000 digests (cp-ingest), one fleet generated to
// shards on disk (trace-generate), one analysis pass over the stored corpus
// (trace-analyze). per_layer is the traced pass.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the directory above benchDir.
func loadSpec(benchDir string) (*benchSpec, error) {
	path := filepath.Join(benchDir, "..", "BENCHMARK.json")
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// units maps every metric name of both passes to its unit.
func (s *benchSpec) units() map[string]string {
	m := make(map[string]string, len(s.EndToEnd)+len(s.PerLayer))
	for _, list := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
		for _, ms := range list {
			m[ms.Name] = ms.Unit
		}
	}
	return m
}

func (s *benchSpec) workloadNames() []string {
	names := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		names[i] = w.Name
	}
	return names
}

// sanitise maps a predictor name onto the metric-name alphabet.
func sanitise(s string) string {
	b := []byte(s)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '.', c == '-':
		default:
			b[i] = '_'
		}
	}
	return strings.Trim(string(b), "_")
}
