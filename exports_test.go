package fgcs

// TestExportsHaveProductCallers holds every function and method in internal/
// and cmd/, exported or not, and every exported type, var and const there,
// to a caller outside the test files. It type-checks each non-test .go file
// of the tree that go/build would compile on this platform (bench/ and
// examples/ count as callers; .bench_build/ and testdata/ are skipped) with
// go/types, the standard library coming from the gc importer, and fails on a
// declaration that no non-test expression outside its own declaration
// resolves to, unless exportAllowlist gives the reason it stays. It also
// fails on a stale allowlist entry: one whose symbol is gone or has gained a
// caller.
//
// Uses are matched by object, not by name, so a dead Observe is caught
// however many live ones there are. A method also counts as used when its
// type satisfies an interface whose same-named method some non-test
// expression resolves to, since a call through the interface reaches it.
// String and Error are exempt (fmt and errors call them), as are main and
// init. A method's receiver type does not count as a use of that type.

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// exportAllowlist names the declarations that stay with no non-test caller,
// keyed "pkg.Name" or "pkg.Recv.Name", each with the reason.
var exportAllowlist = map[string]string{
	"ishare.Node.ExecutionCounts":            "the chaos soaks read each node's run counts to assert exactly-once",
	"availability.SolarisThresholds":         "the paper's §3.2.3 thresholds; contention, check and testbed tests compare against them",
	"availability.TimeInState.Invalid":       "the check differential compares the detector's invalid time with the oracle's",
	"availability.TimeInState.Total":         "the check differential and the testbed oracle test compare per-state time with the oracle's",
	"availability.Controller.GuestSuspended": "the check differential compares the controller's suspension with the oracle's",
	"simos.MustNewMachine":                   "machine fixtures in the ishare, markov, monitor and workload tests",
	"simos.Machine.Processes":                "the ishare, monitor and workload tests inspect the process table",
	"simos.Machine.LiveCount":                "the ishare and workload tests count live processes",
	"simos.Machine.ResidentMem":              "the monitor and workload tests read resident memory",
	"simos.Machine.IdleTime":                 "the markov and workload tests read idle CPU time",
	"simos.Process.Usage":                    "the workload tests read a session's CPU share alone and under contention",
	"forecast.Service.Nodes":                 "the ishare tests count a shard forecaster's machines and check it holds no names",
	"forecast.Service.Span":                  "the ishare forecast tests hold a shard forecaster's span to an oracle's",
	"loadgen.ForecastResult.Format":          "the e23-forecast-replay artefact golden's printer, which artefacts_test.go renders",
	"stats.ECDF.MassBetween":                 "artefacts_test.go reads interval mass off the Fig 7 ECDFs",
	"stats.ECDF.KSDistance":                  "the E24 fit-generate-refit round trip compares interval ECDFs by KS distance",
	"workload.GuestByName":                   "the contention tests pick guests by the paper's names",
	"workload.HostWorkloadByName":            "the contention tests pick host workloads by the paper's names",
}

func TestExportsHaveProductCallers(t *testing.T) {
	m := loadModule(t)

	// What each package declares, with the span of its declaration, and the
	// receiver identifiers, which name a type without using it.
	type decl struct {
		key      string
		from, to token.Pos
	}
	decls := map[types.Object]decl{}
	recvIdents := map[*ast.Ident]bool{}
	for ip, files := range m.files {
		declared := strings.HasPrefix(ip, "repro/internal/") || strings.HasPrefix(ip, "repro/cmd/")
		pkg := ip[strings.LastIndex(ip, "/")+1:]
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								recvIdents[id] = true
							}
							return true
						})
					}
					name := d.Name.Name
					if !declared || name == "main" || name == "init" || name == "_" ||
						d.Recv != nil && (name == "String" || name == "Error") {
						continue
					}
					key := pkg + "." + name
					if d.Recv != nil {
						key = pkg + "." + recvName(d.Recv.List[0].Type) + "." + name
					}
					decls[m.info.Defs[d.Name]] = decl{key, d.Pos(), d.End()}
				case *ast.GenDecl:
					if !declared {
						continue
					}
					for _, spec := range d.Specs {
						var names []*ast.Ident
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{spec.Name}
						case *ast.ValueSpec:
							names = spec.Names
						}
						for _, n := range names {
							if n.IsExported() {
								decls[m.info.Defs[n]] = decl{pkg + "." + n.Name, spec.Pos(), spec.End()}
							}
						}
					}
				}
			}
		}
	}

	// Every object a non-test expression resolves to outside its own
	// declaration, and the interfaces whose methods are among them, by
	// method name.
	used := map[types.Object]bool{}
	ifaceCalls := map[string]map[*types.Interface]bool{}
	for id, obj := range m.info.Uses {
		if recvIdents[id] {
			continue
		}
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
			if recv := o.Type().(*types.Signature).Recv(); recv != nil {
				if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
					if ifaceCalls[o.Name()] == nil {
						ifaceCalls[o.Name()] = map[*types.Interface]bool{}
					}
					ifaceCalls[o.Name()][iface] = true
				}
			}
		case *types.Var:
			obj = o.Origin()
		}
		if d, ok := decls[obj]; ok && d.from <= id.Pos() && id.Pos() < d.to {
			continue
		}
		used[obj] = true
	}
	reached := func(obj types.Object) bool {
		if used[obj] {
			return true
		}
		fn, ok := obj.(*types.Func)
		if !ok || fn.Type().(*types.Signature).Recv() == nil {
			return false
		}
		recv := fn.Type().(*types.Signature).Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		for iface := range ifaceCalls[fn.Name()] {
			if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
				return true
			}
		}
		return false
	}

	var unused, stale []string
	seen := map[string]bool{}
	allowed := 0
	for obj, d := range decls {
		seen[d.key] = true
		_, ok := exportAllowlist[d.key]
		switch r := reached(obj); {
		case !r && ok:
			allowed++
		case !r:
			unused = append(unused, d.key)
		case ok:
			stale = append(stale, d.key+" (now has a caller)")
		}
	}
	for key, reason := range exportAllowlist {
		if !seen[key] {
			stale = append(stale, key+" (no such declaration)")
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("allowlist entry %s gives no reason", key)
		}
	}
	slices.Sort(unused)
	slices.Sort(stale)
	t.Logf("checked %d declarations in internal/ and cmd/: %d allowed without a non-test caller", len(decls), allowed)
	for _, key := range unused {
		t.Errorf("%s: no non-test expression resolves to it; delete it, move it to a test file, or allowlist it with a reason", key)
	}
	for _, key := range stale {
		t.Errorf("stale allowlist entry %s", key)
	}
}

// knobAllowlist names the exported struct fields that stay with no non-test
// setter, keyed "pkg.Type.Field", each with the test, golden or seam that
// needs it.
var knobAllowlist = map[string]string{
	// Fault and timing seams the chaos and crash tests drive, until one
	// injected clock replaces them.
	"ishare.RegistryOptions.Now":            "the skewed-clock seam: TestCrashSoak's mis-set-clock seed, and the broker and recovery tests that step a TTL by hand",
	"ishare.WALOptions.FsyncDelay":          "the slow-disk seam: TestCrashSoak's fsync-latency seeds and the WAL tests",
	"ishare.WALOptions.SyncInterval":        "the WAL and recovery tests run the log without its background sync loop (a negative interval)",
	"ishare.NodeConfig.CrashAtVirtual":      "the mid-job crash seam (the paper's S5): the node and resilience crash tests",
	"ishare.NodeConfig.Dialer":              "the fault-injection seam: the chaos soak and smoke route node traffic through chaos.Injector",
	"ishare.NodeConfig.HeartbeatEvery":      "the chaos soaks and resilience tests shorten heartbeats to see liveness change within a test",
	"ishare.NodeConfig.HeartbeatMaxBackoff": "the chaos soaks cap heartbeat backoff so a healed partition re-registers within a test",
	"ishare.NodeConfig.Machine":             "TestNodePipelinePinned and the crash tests pin a node's machine seed",
	"ishare.NodeConfig.MaxJobVirtual":       "TestChaosSoak's slow node caps a job's virtual time",
	"ishare.Broker.MaxRounds":               "the chaos and crash soaks bound the broker's failover rounds",
	"ishare.Broker.RoundDelay":              "the chaos and crash soaks shorten the broker's pause between failover rounds",
	"chaos.Fault.CorruptProb":               chaosFault,
	"chaos.Fault.DialLatency":               chaosFault,
	"chaos.Fault.DropAfterBytes":            chaosFault,
	"chaos.Fault.DropProb":                  chaosFault,
	"chaos.Fault.ReadLatency":               chaosFault,
	"chaos.Fault.RefuseProb":                chaosFault,
	"chaos.Fault.Skip":                      chaosFault,
	"chaos.Fault.Times":                     chaosFault,

	// Fields a golden or the differential's counts read.
	"forecast.Config.Trim":            "the trimmed online leg of internal/check's forecast differential, counted in ForecastChecks",
	"predict.EvalConfig.MaxMachines":  "the artefact goldens' predictor rows evaluate ten machines (artefacts_test.go)",
	"testbed.Params.PoissonPlacement": "the §5 ablation row of the ablations artefact golden",
	"markov.GenConfig.StartWeekday":   "internal/check's generative differential draws a start weekday per seed; its event and boundary-prediction counts depend on it",

	// Other fields.
	"monitor.Config.GuestDemand":           "the paper's guest working set as a per-monitor value, which TestGuestDemandAttached pins the monitor hands on; product monitors leave it 0, and the detector's GuestWorkingSet applies",
	"forecast.Config.EventCapacity":        "the ring-overflow tests TestRingEviction and TestNilSlotAnswersAsEmptyRing bound the ring to a few events",
	"availability.Thresholds.Explicit":     "a deliberate zero threshold, which TestConfigThresholdDefaulting and TestExplicitZeroTh1ClassifiesIdleAsS2 hold apart from an unset one",
	"trace.BlockWriterOptions.Compression": "stored blocks the reader must accept: the trace decode, truncation and fuzz tests write them",
	"simos.MachineConfig.CPUs":             "the multi-CPU scheduler, which the simos SMP and markov multicore tests run; its removal is a change of its own",
}

const chaosFault = "a fault the chaos tests script through chaos.Injector"

// TestKnobsHaveProductSetters holds every exported field of an exported
// struct type declared in internal/ or cmd/ to a setter outside the test
// files. A field that only tests set is a knob with one value in product
// use, and every other value selects a path that only a test reaches. A set
// is a composite-literal key, an assignment or inc/dec target, or an &
// operand, and a target may reach the field through an index or a field of
// it (m.Rates[h][c] = v sets Rates). A set inside a function named
// withDefaults or WithDefaults does not count: that is where the one value
// is filled in. bench/ and examples/ count as setters. It fails on a field
// with no setter that knobAllowlist does not give a reason for, and on a
// stale entry: one whose field is gone or has gained a setter.
func TestKnobsHaveProductSetters(t *testing.T) {
	m := loadModule(t)

	fields := map[*types.Var]string{}
	for ip, files := range m.files {
		if !strings.HasPrefix(ip, "repro/internal/") && !strings.HasPrefix(ip, "repro/cmd/") {
			continue
		}
		pkg := ip[strings.LastIndex(ip, "/")+1:]
		for _, f := range files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					if !ts.Name.IsExported() || ts.Assign.IsValid() {
						continue
					}
					st, ok := m.info.Defs[ts.Name].Type().Underlying().(*types.Struct)
					if !ok {
						continue
					}
					for i := range st.NumFields() {
						if fv := st.Field(i); fv.Exported() {
							fields[fv] = pkg + "." + ts.Name.Name + "." + fv.Name()
						}
					}
				}
			}
		}
	}

	set := map[*types.Var]bool{}
	mark := func(id *ast.Ident) {
		if v, ok := m.info.Uses[id].(*types.Var); ok && v.IsField() {
			set[v.Origin()] = true
		}
	}
	// markPath marks every field on the way from a set target to its root.
	markPath := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				mark(x.Sel)
				e = x.X
			default:
				return
			}
		}
	}
	for _, files := range m.files {
		for _, f := range files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && (fd.Name.Name == "withDefaults" || fd.Name.Name == "WithDefaults") {
					continue
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.KeyValueExpr:
						if id, ok := n.Key.(*ast.Ident); ok {
							mark(id)
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							markPath(lhs)
						}
					case *ast.IncDecStmt:
						markPath(n.X)
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							markPath(n.X)
						}
					}
					return true
				})
			}
		}
	}

	var unset, stale []string
	seen := map[string]bool{}
	allowed := 0
	for fv, key := range fields {
		seen[key] = true
		_, ok := knobAllowlist[key]
		switch {
		case !set[fv] && ok:
			allowed++
		case !set[fv]:
			unset = append(unset, key)
		case ok:
			stale = append(stale, key+" (now has a setter)")
		}
	}
	for key, reason := range knobAllowlist {
		if !seen[key] {
			stale = append(stale, key+" (no such field)")
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("allowlist entry %s gives no reason", key)
		}
	}
	slices.Sort(unset)
	slices.Sort(stale)
	t.Logf("checked %d exported fields in internal/ and cmd/: %d allowed without a non-test setter", len(fields), allowed)
	for _, key := range unset {
		t.Errorf("%s: no non-test code sets it outside withDefaults; fold it into a constant, delete it with the path it selects, or allowlist it with a reason", key)
	}
	for _, key := range stale {
		t.Errorf("stale allowlist entry %s", key)
	}
}

// moduleChecker type-checks the tree's packages from source, each once, so
// that every package sees the same objects for what it imports from the
// repro module (bench/ included); the standard library comes from std.
type moduleChecker struct {
	fset  *token.FileSet
	files map[string][]*ast.File // by import path
	pkgs  map[string]*types.Package
	std   types.Importer
	info  *types.Info
}

var (
	moduleOnce sync.Once
	module     *moduleChecker
	moduleErr  error
)

// loadModule parses and type-checks the tree once for every guard in this
// file: each non-test .go file that go/build would compile on this platform,
// .bench_build/ and testdata/ skipped.
func loadModule(t *testing.T) *moduleChecker {
	t.Helper()
	moduleOnce.Do(func() { module, moduleErr = parseModule() })
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return module
}

func parseModule() (*moduleChecker, error) {
	m := &moduleChecker{
		fset:  token.NewFileSet(),
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		std:   importer.Default(),
		info:  &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}},
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		dir, name := filepath.Split(path)
		if strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Join(".", dir), name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(m.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ip := importPath(filepath.Dir(path))
		m.files[ip] = append(m.files[ip], f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ip := range m.files {
		if _, err := m.Import(ip); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func (m *moduleChecker) Import(path string) (*types.Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	files, ok := m.files[path]
	if !ok {
		return m.std.Import(path)
	}
	conf := types.Config{Importer: m}
	p, err := conf.Check(path, m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path] = p
	return p, nil
}

// importPath maps a directory of the tree to its import path: bench/ is the
// repro/bench module, which replaces repro with the root.
func importPath(dir string) string {
	if dir == "." {
		return "repro"
	}
	return "repro/" + filepath.ToSlash(dir)
}

// recvName is the type name of a method receiver: T in (T), (*T), (T[K]).
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
