package ishare

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestBrokerMetricsRaceSafe hammers SubmitBest from several goroutines
// while another polls Metrics() and scrapes the obs registry. Run with
// -race: the old BrokerMetrics was mutated under b.mu and a concurrent
// snapshot could tear.
func TestBrokerMetricsRaceSafe(t *testing.T) {
	reg, err := NewRegistry("127.0.0.1:0", 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	var nodes []*Node
	for i := 0; i < 2; i++ {
		n, err := NewNode("127.0.0.1:0", NodeConfig{
			Name:          fmt.Sprintf("rn%d", i),
			RegistryAddrs: []string{reg.Addr()},
			HostLoad:      0.05,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		nodes = append(nodes, n)
	}

	b := NewBroker(reg.Addr())
	b.Obs = obs.NewRegistry()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const workers = 4
	const jobsPerWorker = 3
	stop := make(chan struct{})
	var poller sync.WaitGroup
	poller.Add(1)
	go func() {
		defer poller.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = b.Metrics()
			var buf bytes.Buffer
			if err := b.Obs.WritePrometheus(&buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var submitters sync.WaitGroup
	for w := 0; w < workers; w++ {
		submitters.Add(1)
		go func(w int) {
			defer submitters.Done()
			for i := 0; i < jobsPerWorker; i++ {
				job := JobSpec{Name: fmt.Sprintf("job-%d-%d", w, i), CPUSeconds: 30}
				if _, _, err := b.SubmitBest(ctx, job); err != nil {
					t.Errorf("worker %d job %d: %v", w, i, err)
				}
			}
		}(w)
	}
	submitters.Wait()
	close(stop)
	poller.Wait()

	m := b.Metrics()
	total := workers * jobsPerWorker
	if got := int(b.metrics().completions.Value()); got != total {
		t.Errorf("completions = %d, want %d", got, total)
	}
	if m.Failovers != 0 || m.RegistryErrors != 0 {
		t.Errorf("unexpected failures in healthy cluster: %+v", m)
	}
}

// TestMetricsMatchScrape checks that the BrokerMetrics snapshot and the
// Prometheus scrape of the same registry agree, and that the expected
// family names appear in the exposition.
func TestMetricsMatchScrape(t *testing.T) {
	reg, err := NewRegistry("127.0.0.1:0", 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	n, err := NewNode("127.0.0.1:0", NodeConfig{Name: "mn", RegistryAddrs: []string{reg.Addr()}, HostLoad: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	b := NewBroker(reg.Addr())
	b.Obs = obs.NewRegistry()
	ctx := context.Background()

	job := JobSpec{Name: "scrape-job", ID: "scrape-job#1", CPUSeconds: 20}
	if _, _, err := b.SubmitBest(ctx, job); err != nil {
		t.Fatal(err)
	}
	// Resubmit the same ID: the node dedups, the broker counts the hit.
	if res, _, err := b.SubmitBest(ctx, job); err != nil || !res.Deduped {
		t.Fatalf("resubmission: res=%+v err=%v, want deduped result", res, err)
	}

	m := b.Metrics()
	if m.DedupHits != 1 {
		t.Errorf("DedupHits = %d, want 1", m.DedupHits)
	}

	var buf bytes.Buffer
	if err := b.Obs.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"fgcs_broker_submissions_total 2",
		"fgcs_broker_completions_total 2",
		"fgcs_broker_dedup_hits_total 1",
		"fgcs_broker_failovers_total 0",
		"fgcs_broker_stale_serves_total 0",
		"fgcs_client_requests_total{op=\"submit\"}",
		"fgcs_broker_submit_seconds_count 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q\n%s", want, text)
		}
	}
}

// TestTraceIDContext pins the context helpers and the wire stamping: a
// trace set on the context reaches the node's handler via Request.Trace.
func TestTraceIDContext(t *testing.T) {
	if got := TraceIDFrom(context.Background()); got != "" {
		t.Errorf("empty context trace = %q", got)
	}
	ctx := WithTraceID(context.Background(), "job#7")
	if got := TraceIDFrom(ctx); got != "job#7" {
		t.Errorf("trace = %q, want job#7", got)
	}
	// Empty IDs do not overwrite the context.
	if got := TraceIDFrom(WithTraceID(ctx, "")); got != "job#7" {
		t.Errorf("after empty WithTraceID: trace = %q, want job#7", got)
	}
}
