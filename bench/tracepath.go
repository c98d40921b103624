package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"time"

	"repro/internal/forecast"
	"repro/internal/loadgen"
	"repro/internal/markov"
	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/trace"
)

// The offline path. trace-generate is its write side (simulate, detect,
// encode to v2 shards on disk); trace-analyze its read side (block scan,
// Table 2 / Fig 6 / Fig 7, predictor evaluation, point queries, model fit).
// The testbed does nothing in trace-analyze's timed part. The proactive
// replay, which simulates fleets of its own, runs once after the window as a
// checked probe.

// timingSink wraps EncoderSinkV2. RunSharded's sink calls are serial and
// never overlap simulation, so per shard: simulate = previous ShardDone
// (or the run's start) to the shard's first Machine call, encode = that
// call to ShardDone's return.
type timingSink struct {
	inner    testbed.EventSink
	rec      *spanRecorder
	parent   int32
	mark     time.Time // end of the previous shard, or the run's start
	first    time.Time // first Machine call of the current shard
	inShard  bool
	events   int64
	sinkTime time.Duration
	simTime  time.Duration
}

func (s *timingSink) Machine(id trace.MachineID, events []trace.Event) error {
	t0 := time.Now()
	if !s.inShard {
		s.inShard, s.first = true, t0
	}
	s.events += int64(len(events))
	err := s.inner.Machine(id, events)
	s.sinkTime += time.Since(t0)
	return err
}

func (s *timingSink) ShardDone(first trace.MachineID, n int) error {
	t0 := time.Now()
	if !s.inShard { // an empty shard: no Machine call preceded
		s.first = t0
	}
	err := s.inner.ShardDone(first, n)
	end := time.Now()
	s.sinkTime += end.Sub(t0)
	s.simTime += s.first.Sub(s.mark)
	s.rec.add(s.parent, spSimulate, s.mark, s.first)
	s.rec.add(s.parent, spEncode, s.first, end)
	s.mark, s.inShard = end, false
	return err
}

// generated is what one fleet generation left behind.
type generated struct {
	paths                  []string
	events, bytes          int64
	wall, simulate, encode time.Duration
}

// generateShards runs the sharded testbed into v2 shard files under dir.
func generateShards(cfg testbed.Config, shardSize int, dir string, rec *spanRecorder, parent int32) (generated, error) {
	var g generated
	enc := testbed.NewEncoderSinkV2(cfg, nil, func(shard int) (io.WriteCloser, error) {
		p := filepath.Join(dir, fmt.Sprintf("shard-%04d.fgcb", shard))
		g.paths = append(g.paths, p)
		return os.Create(p)
	})
	sink := &timingSink{inner: enc, rec: rec, parent: parent, mark: time.Now()}
	start := sink.mark
	if err := testbed.RunSharded(cfg, shardSize, sink); err != nil {
		return g, err
	}
	g.wall = time.Since(start)
	g.events, g.simulate, g.encode = sink.events, sink.simTime, sink.sinkTime
	for _, p := range g.paths {
		info, err := os.Stat(p)
		if err != nil {
			return g, err
		}
		g.bytes += info.Size()
	}
	return g, nil
}

func fleetConfig(rc *runConfig, machines, days int) testbed.Config {
	cfg := testbed.DefaultConfig()
	cfg.Machines, cfg.Days, cfg.Seed, cfg.Parallelism = machines, days, rc.seed, rc.nproc
	return cfg
}

// reopenCount re-opens the shards and analyses them: no shard may be
// truncated, and the events must be the ones the sink saw.
func reopenCount(paths []string) (int64, error) {
	for _, p := range paths {
		bf, err := trace.OpenBlockFile(p)
		if err != nil {
			return 0, err
		}
		truncated := bf.Truncated()
		bf.Close()
		if truncated {
			return 0, fmt.Errorf("%s is truncated", p)
		}
	}
	a, err := trace.AnalyzeBlockPaths(paths, 0)
	if err != nil {
		return 0, err
	}
	return int64(a.Events()), nil
}

// fixedLoop repeats a fixed-size op until the window has passed. Each op
// is one window of the summary; in a traced run odd ops are traced. There
// is no untimed warm-up op: whatever an op needs warmed is part of set-up,
// where its cost shows.
func fixedLoop(rc *runConfig, op func(traced bool) error) ([]window, error) {
	var out []window
	need := 1
	if rc.trace {
		need = 2
	}
	deadline := time.Now().Add(time.Duration(rc.seconds * float64(time.Second)))
	var firstErr error
	for i := 0; i < need || time.Now().Before(deadline); i++ {
		if err := rc.sampleHost(); err != nil {
			return nil, err
		}
		w := window{traced: rc.trace && i%2 == 1, ops: 1}
		resetPeakRSS()
		u0 := readUsage()
		err := op(w.traced)
		u1 := readUsage()
		w.use, w.seconds, w.peakRSS = u1.sub(u0), u1.at.Sub(u0.at).Seconds(), peakRSSMB()
		w.lat[0] = []float64{1e6 * w.seconds}
		if err != nil {
			w.failed = 1
			if firstErr == nil {
				firstErr = err
			}
		}
		out = append(out, w)
	}
	if err := rc.sampleHost(); err != nil {
		return nil, err
	}
	return out, firstErr
}

// runGenerate is trace-generate: one op generates the same seeded fleet to
// shards on disk, so every op's output must repeat exactly.
func runGenerate(rc *runConfig, rep *report) error {
	sz := rc.sizes
	dir := filepath.Join(rc.tmp, "shards")
	cfg := fleetConfig(rc, sz.genMachines, sz.genDays)
	// Set-up: the output directory and one untimed op, which faults in the
	// whole pipeline and is itself checked by re-analysis.
	for i := 0; i < setups; i++ {
		err := rc.timeSetup(func() error {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
			g, err := generateShards(cfg, sz.genShard, dir, nil, 0)
			if err != nil {
				return err
			}
			if n, err := reopenCount(g.paths); err != nil || n != g.events {
				return fmt.Errorf("re-analysed %d events, sink saw %d: %v", n, g.events, err)
			}
			return nil
		})
		if err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}

	var rec *spanRecorder
	if rc.trace {
		rec = newSpanRecorder(1 << 12)
	}
	machineDays := float64(sz.genMachines * sz.genDays)
	var runs []generated
	wins, loopErr := fixedLoop(rc, func(traced bool) error {
		var r *spanRecorder
		var id int32
		if traced {
			r = rec
			id = rec.begin(0, spGenerate)
			defer rec.finish(id)
		}
		g, err := generateShards(cfg, sz.genShard, dir, r, id)
		runs = append(runs, g)
		return err
	})
	if loopErr != nil {
		return loopErr
	}
	summarise(rep, rc, wins)

	last := runs[len(runs)-1]
	same := true
	for _, g := range runs {
		same = same && g.events == last.events && g.bytes == last.bytes
	}
	rep.check("every-op-repeats", same, "ops of one seed differ in events or stored bytes")
	n, err := reopenCount(last.paths)
	rep.check("reanalysed-events-equal-sink", err == nil && n == last.events, "re-analysed %d events, sink saw %d: %v", n, last.events, err)
	rep.check("events-generated", last.events > 0, "no events")
	rep.note("one op = %d machines x %d days in shards of %d: %d events, %d bytes stored (%.3f bytes/event), %.0f machine-days/s by the clock",
		sz.genMachines, sz.genDays, sz.genShard, last.events, last.bytes, float64(last.bytes)/float64(last.events),
		machineDays*median(over(pick(wins, false), window.rate)))

	if !rc.trace {
		return nil
	}
	var sim, enc, wall []float64
	for i, g := range runs {
		if wins[i].traced {
			sim, enc, wall = append(sim, g.simulate.Seconds()), append(enc, g.encode.Seconds()), append(wall, g.wall.Seconds())
		}
	}
	rep.set("testbed.generate_machine_days_s", machineDays/median(wall))
	rep.set("testbed.simulate_s", median(sim))
	rep.set("testbed.simulate_machine_days_s", machineDays/median(sim))
	rep.set("testbed.sink_share", median(enc)/median(wall))
	rep.set("testbed.events", float64(last.events))
	rep.set("trace.encode_s", median(enc))
	rep.set("trace.encode_mb_s", float64(last.bytes)/1e6/median(enc))
	rep.set("trace.encode_events_s", float64(last.events)/median(enc))
	rep.set("trace.bytes_per_event", float64(last.bytes)/float64(last.events))
	if err := rc.probeGenerateLayers(rep, cfg, last); err != nil {
		return err
	}
	return rc.finishSpans(rep, rec)
}

// pointQuerier is the point-query surface trace.Index and trace.BlockIndex share.
type pointQuerier interface {
	FirstOverlap(trace.MachineID, sim.Window) (trace.Event, bool)
	CountInWindow(trace.MachineID, sim.Window) int
	AnyOverlap(trace.MachineID, sim.Window) bool
	NextEventAfter(trace.MachineID, sim.Time) (trace.Event, bool)
	LastEndBefore(trace.MachineID, sim.Time) (sim.Time, bool)
}

// pointQueryMix runs the fixed 5-method mix — 3-hour windows at a 2-hour
// stride on three machines of [lo, hi) — and folds the answers into a
// checksum. It returns the number of queries asked.
func pointQueryMix(q pointQuerier, span sim.Window, lo, hi trace.MachineID) (sum uint64, queries int) {
	sum = 1469598103934665603
	mix := func(v int64) { sum = (sum ^ uint64(v)) * 1099511628211 }
	width := hi - lo
	for _, m := range []trace.MachineID{lo + width/10, lo + width/3, lo + width/2} {
		for start := span.Start; start+3*time.Hour <= span.End; start += 2 * time.Hour {
			w := sim.Window{Start: start, End: start + 3*time.Hour}
			if e, ok := q.FirstOverlap(m, w); ok {
				mix(int64(e.Start))
			}
			mix(int64(q.CountInWindow(m, w)))
			if q.AnyOverlap(m, w) {
				mix(1)
			}
			if e, ok := q.NextEventAfter(m, w.Start); ok {
				mix(int64(e.End))
			}
			if t, ok := q.LastEndBefore(m, w.End); ok {
				mix(int64(t))
			}
			queries += 5
		}
	}
	return sum, queries
}

// sameAnalysis reports the first published result two analyzers differ on.
func sameAnalysis(a, b *trace.StreamAnalyzer) error {
	if a.Events() != b.Events() {
		return fmt.Errorf("events: %d vs %d", a.Events(), b.Events())
	}
	if !reflect.DeepEqual(a.Table2(), b.Table2()) {
		return fmt.Errorf("Table 2 differs")
	}
	if !reflect.DeepEqual(a.CountByCause(), b.CountByCause()) {
		return fmt.Errorf("cause counts differ")
	}
	for _, dt := range []sim.DayType{sim.Weekday, sim.Weekend} {
		if !reflect.DeepEqual(a.IntervalLengths(dt), b.IntervalLengths(dt)) {
			return fmt.Errorf("interval lengths differ for %v", dt)
		}
		if !reflect.DeepEqual(a.HourlyOccurrences(dt), b.HourlyOccurrences(dt)) {
			return fmt.Errorf("hourly occurrences differ for %v", dt)
		}
	}
	return nil
}

// fingerprint hashes the Table 2, Fig 6 and Fig 7 results, so two commits
// can be compared on one line.
func fingerprint(a *trace.StreamAnalyzer) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n", a.Table2())
	for _, dt := range []sim.DayType{sim.Weekday, sim.Weekend} {
		fmt.Fprintf(h, "%v\n%v\n", a.IntervalLengths(dt), a.HourlyOccurrences(dt))
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// passResult is what one analysis pass computed; every field but the stage
// times must repeat exactly from pass to pass.
type passResult struct {
	fingerprint   string
	windows       int
	brier         []float64 // per default predictor
	pointSum      uint64
	blocksDecoded int
	fitEvents     int
	queries       int
	stage         [4]time.Duration // analyze, predict, pointq, fit
}

func (p passResult) exact() passResult {
	p.stage = [4]time.Duration{}
	return p
}

// analysisPass runs the four stages once over the stored corpus. The trace
// store's read path (analyze, predict, pointq) is most of a pass, so the
// end-to-end time answers to it.
func analysisPass(rc *runConfig, c corpus, rec *spanRecorder) (passResult, error) {
	paths := c.fleet.paths
	var p passResult
	pass := rec.begin(0, spPass)
	defer rec.finish(pass)
	stage := func(i int, name uint8, fn func() error) error {
		id := rec.begin(pass, name)
		t0 := time.Now()
		err := fn()
		p.stage[i] = time.Since(t0)
		rec.finish(id)
		return err
	}

	if err := stage(0, spAnalyze, func() error {
		a, err := trace.AnalyzeBlockPaths(paths, rc.nproc)
		if err != nil {
			return err
		}
		p.fingerprint = fingerprint(a)
		return nil
	}); err != nil {
		return p, fmt.Errorf("analyze: %w", err)
	}

	files := make([]*trace.BlockFile, len(paths))
	for i, path := range paths {
		bf, err := trace.OpenBlockFile(path)
		if err != nil {
			return p, err
		}
		defer bf.Close()
		files[i] = bf
	}
	evalFile, err := trace.OpenBlockFile(c.eval.paths[0])
	if err != nil {
		return p, err
	}
	defer evalFile.Close()

	if err := stage(1, spPredict, func() error {
		ev, err := predict.EvaluateBlocks(evalFile, predict.DefaultPredictors(), predict.DefaultEvalConfig())
		if err != nil {
			return err
		}
		for _, s := range ev.Scores {
			p.windows += s.Windows
			p.brier = append(p.brier, s.Brier)
		}
		return nil
	}); err != nil {
		return p, fmt.Errorf("predict: %w", err)
	}

	if err := stage(2, spPointq, func() error {
		for _, bf := range files {
			ix := trace.NewBlockIndex(bf)
			lo, hi := bf.Coverage()
			sum, n := pointQueryMix(ix, bf.Header().Span, lo, hi)
			if err := ix.Err(); err != nil {
				return err
			}
			p.pointSum = p.pointSum*1099511628211 ^ sum
			p.queries += n
			p.blocksDecoded += ix.BlocksDecoded()
		}
		return nil
	}); err != nil {
		return p, fmt.Errorf("pointq: %w", err)
	}

	// The one-file trace again: it holds events for every machine its header
	// names, so the model is fitted to, and generates, the fleet it saw.
	if err := stage(3, spFit, func() error {
		tr, err := trace.CollectEvents(evalFile.Reader())
		if err != nil {
			return err
		}
		model, err := markov.Fit(tr, markov.FitOptions{})
		if err != nil {
			return err
		}
		gen, err := markov.Generate(model, markov.GenConfig{Machines: tr.Machines, Days: rc.sizes.evalDays, Seed: rc.seed})
		if err != nil {
			return err
		}
		p.fitEvents = len(gen.Events)
		return nil
	}); err != nil {
		return p, fmt.Errorf("fit: %w", err)
	}
	return p, nil
}

// replayResult sums loadgen.RunForecast over the replay seeds; every field
// but seconds repeats exactly for a seed.
type replayResult struct {
	wasted      [2]float64 // reactive, proactive CPU seconds
	completed   [2]int
	checkpoints int
	migrations  int
	seconds     float64
}

// replay runs the proactive-vs-reactive evaluation on the seeds derived from
// the run's seed, as one gsched.replay span.
func replay(rc *runConfig, rec *spanRecorder) (replayResult, error) {
	var r replayResult
	id := rec.begin(0, spReplay)
	defer rec.finish(id)
	t0 := time.Now()
	for i := 0; i < rc.sizes.replaySeeds; i++ {
		res, err := loadgen.RunForecast(loadgen.ForecastConfig{Seed: replaySeed(rc.seed, i)})
		if err != nil {
			return r, fmt.Errorf("replay: %w", err)
		}
		r.wasted[0] += res.Reactive.WastedCPUSeconds
		r.wasted[1] += res.Proactive.WastedCPUSeconds
		r.completed[0] += res.Reactive.Completed
		r.completed[1] += res.Proactive.Completed
		r.checkpoints += res.Checkpoints
		r.migrations += res.Migrations
	}
	r.seconds = time.Since(t0).Seconds()
	return r, nil
}

// replaySeed derives the i-th replay seed from the run's seed; never 0,
// which RunForecast would replace with its default.
func replaySeed(seed int64, i int) int64 {
	return int64(mix64(uint64(seed)+uint64(i+1)*splitmixGamma)>>1) | 1
}

// corpus is what trace-analyze's set-up stores: a fleet in shards, and a
// one-file trace for the predictors. A shard's header names the whole
// fleet, so predict.EvaluateBlocks over a shard would walk mostly machines
// the shard does not hold; the one-file trace holds every machine it names.
type corpus struct {
	fleet, eval generated
}

func writeCorpus(rc *runConfig, dir string) (corpus, error) {
	var c corpus
	sz := rc.sizes
	for _, part := range []struct {
		g                     *generated
		sub                   string
		machines, days, shard int
	}{
		{&c.fleet, "fleet", sz.corpusMachines, sz.corpusDays, sz.corpusShard},
		{&c.eval, "eval", sz.evalMachines, sz.evalDays, sz.evalMachines},
	} {
		sub := filepath.Join(dir, part.sub)
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return c, err
		}
		g, err := generateShards(fleetConfig(rc, part.machines, part.days), part.shard, sub, nil, 0)
		if err != nil {
			return c, err
		}
		sort.Strings(g.paths)
		*part.g = g
	}
	return c, nil
}

// runAnalyze is trace-analyze: one op is one analysis pass over the corpus
// written in set-up.
func runAnalyze(rc *runConfig, rep *report) error {
	sz := rc.sizes
	dir := filepath.Join(rc.tmp, "corpus")
	var corpus corpus
	for i := 0; i < setups; i++ {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		err := rc.timeSetup(func() (err error) {
			corpus, err = writeCorpus(rc, dir)
			return err
		})
		if err != nil {
			return err
		}
	}

	var rec *spanRecorder
	if rc.trace {
		rec = newSpanRecorder(1 << 12)
	}
	var passes []passResult
	wins, loopErr := fixedLoop(rc, func(traced bool) error {
		var r *spanRecorder
		if traced {
			r = rec
		}
		p, err := analysisPass(rc, corpus, r)
		passes = append(passes, p)
		return err
	})
	if loopErr != nil {
		return loopErr
	}
	summarise(rep, rc, wins)

	last := passes[len(passes)-1]
	same := true
	for _, p := range passes {
		same = same && reflect.DeepEqual(p.exact(), last.exact())
	}
	rep.check("every-pass-repeats", same, "passes over one corpus differ in an exact-repeat value")
	rc.checkAnalysis(rep, corpus.fleet, last)
	played, err := replay(rc, rec)
	if err != nil {
		return err
	}
	// Within a hundredth, not equal: on the recorded seeds the counts are
	// equal, on others either policy finishes a job or two more inside the
	// horizon.
	rep.check("replay-completes-as-many-jobs", played.completed[0] > 0 && 100*abs(played.completed[1]-played.completed[0]) <= played.completed[0],
		"reactive completed %d jobs, proactive %d", played.completed[0], played.completed[1])
	rep.check("replay-saves-work", played.wasted[1] < played.wasted[0], "proactive wasted %.0fs, reactive %.0fs", played.wasted[1], played.wasted[0])
	machineDays := float64(sz.corpusMachines * sz.corpusDays)
	reduction := 100 * (1 - played.wasted[1]/played.wasted[0])
	rep.note("corpus %d machines x %d days in %d shards, %d events, and %d x %d in one file for the predictors; artefact fingerprint %s",
		sz.corpusMachines, sz.corpusDays, len(corpus.fleet.paths), corpus.fleet.events, sz.evalMachines, sz.evalDays, last.fingerprint)
	stageMedian := func(i int, traced bool) float64 {
		var v []float64
		for j, p := range passes {
			if wins[j].traced == traced {
				v = append(v, p.stage[i].Seconds())
			}
		}
		return median(v)
	}
	rep.note("stage medians (untraced): analyze %.1f ms (%.0f machine-days/s), predict %.1f ms (%.0f windows/s), pointq %.1f ms, fit+generate %.1f ms",
		1e3*stageMedian(0, false), machineDays/stageMedian(0, false), 1e3*stageMedian(1, false), float64(last.windows)/stageMedian(1, false),
		1e3*stageMedian(2, false), 1e3*stageMedian(3, false))
	rep.note("replay after the window: %.1f ms over %d seeds, waste reduction %.3f%%", 1e3*played.seconds, sz.replaySeeds, reduction)

	if !rc.trace {
		return nil
	}
	rep.set("trace.analyze_machine_days_s", machineDays/stageMedian(0, true))
	rep.set("predict.windows_s", float64(last.windows)/stageMedian(1, true))
	rep.set("trace.pointq_ns", 1e9*stageMedian(2, true)/float64(max(last.queries, 1)))
	rep.set("trace.pointq_blocks_decoded", float64(last.blocksDecoded))
	rep.set("gsched.replay_ms", 1e3*played.seconds/float64(sz.replaySeeds))
	rep.set("gsched.checkpoints", float64(played.checkpoints))
	rep.set("gsched.migrations", float64(played.migrations))
	rep.set("gsched.wasted_cpu_s_reactive", played.wasted[0])
	rep.set("gsched.wasted_cpu_s_proactive", played.wasted[1])
	rep.set("gsched.waste_reduction_pct", reduction)
	if err := rc.probeAnalyzeLayers(rep, corpus); err != nil {
		return err
	}
	return rc.finishSpans(rep, rec)
}

// checkAnalysis holds the read path to its invariants: serial and parallel
// analysis agree, and the block index answers as the in-memory index does.
func (rc *runConfig) checkAnalysis(rep *report, corpus generated, last passResult) {
	serial, err1 := trace.AnalyzeBlockPaths(corpus.paths, 1)
	parallel, err2 := trace.AnalyzeBlockPaths(corpus.paths, max(rc.nproc, 2))
	switch {
	case err1 != nil || err2 != nil:
		rep.check("serial-equals-parallel", false, "%v %v", err1, err2)
	default:
		err := sameAnalysis(serial, parallel)
		rep.check("serial-equals-parallel", err == nil, "%v", err)
		rep.check("analysed-events-equal-sink", int64(serial.Events()) == corpus.events, "analysed %d events, sink saw %d", serial.Events(), corpus.events)
		rep.check("fingerprint-repeats", fingerprint(serial) == last.fingerprint, "serial %s, timed pass %s", fingerprint(serial), last.fingerprint)
	}

	var memSum uint64
	for _, p := range corpus.paths {
		data, err := os.ReadFile(p)
		if err != nil {
			rep.check("blockindex-equals-index", false, "%v", err)
			return
		}
		tr, err := trace.ReadBlocks(bytes.NewReader(data))
		if err != nil {
			rep.check("blockindex-equals-index", false, "%s: %v", p, err)
			return
		}
		bf, err := trace.NewBlockFileBytes(data)
		if err != nil {
			rep.check("blockindex-equals-index", false, "%s: %v", p, err)
			return
		}
		lo, hi := bf.Coverage()
		sum, _ := pointQueryMix(tr.BuildIndex(), tr.Span, lo, hi)
		memSum = memSum*1099511628211 ^ sum
	}
	rep.check("blockindex-equals-index", memSum == last.pointSum, "in-memory checksum %x, block index %x", memSum, last.pointSum)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// onlineReplay feeds a trace's events to a fresh forecast.Online and then
// queries it, returning ingest events/s and microseconds per query.
func onlineReplay(tr *trace.Trace) (eventsS, queryUS float64, err error) {
	on, err := forecast.New(forecast.Config{Calendar: tr.Calendar, Machines: tr.Machines, Start: tr.Span.Start})
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	for _, ev := range tr.Events {
		on.ObserveEvent(ev)
	}
	on.AdvanceTo(tr.Span.End)
	eventsS = float64(on.Events()) / time.Since(t0).Seconds()
	const queries = 2000
	var sink float64
	t0 = time.Now()
	for i := 0; i < queries; i++ {
		start := tr.Span.End + sim.Time(i%24)*time.Hour
		f := on.ForecastWindow(trace.MachineID(i%tr.Machines), sim.Window{Start: start, End: start + time.Hour})
		sink += f.Survival
	}
	queryUS = micros(time.Since(t0)) / queries
	if sink < 0 {
		return 0, 0, fmt.Errorf("negative survival")
	}
	return eventsS, queryUS, nil
}
