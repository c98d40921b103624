package fgcs

// TestExportsHaveProductCallers holds every exported name in internal/ and
// cmd/ to a caller outside the test files. It parses each non-test .go file
// of the tree with go/parser (bench/ and examples/ count as callers;
// .bench_build/ and testdata/ are skipped), lists every exported top-level
// func, method, type, var and const declared under internal/ or cmd/, and
// fails on one whose name no identifier outside its own declaration names,
// unless exportAllowlist gives the reason it stays. It also fails on a
// stale allowlist entry: one whose symbol is gone or has gained a caller.
//
// Matching is by name alone, so it is conservative: a dead method passes
// when any live identifier anywhere shares its name (every String, every
// Run). A method's receiver type does not count as a use of that type.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// exportAllowlist names the exports that stay with no non-test caller,
// keyed "pkg.Name" or "pkg.Recv.Name", each with the reason.
var exportAllowlist = map[string]string{
	"ishare.Node.ExecutionCounts":            "the chaos soaks read each node's run counts to assert exactly-once",
	"availability.SolarisThresholds":         "the paper's §3.2.3 thresholds; contention, check and testbed tests compare against them",
	"availability.TimeInState.Invalid":       "the check differential compares the detector's invalid time with the oracle's",
	"availability.Controller.GuestSuspended": "the check differential compares the controller's suspension with the oracle's",
	"simos.MustNewMachine":                   "machine fixtures in the ishare, markov, monitor and workload tests",
	"simos.Machine.Processes":                "the ishare, monitor and workload tests inspect the process table",
	"simos.Machine.LiveCount":                "the ishare and workload tests count live processes",
	"simos.Machine.ResidentMem":              "the monitor and workload tests read resident memory",
	"simos.Machine.IdleTime":                 "the markov and workload tests read idle CPU time",
	"stats.ECDF.MassBetween":                 "artefacts_test.go reads interval mass off the Fig 7 ECDFs",
	"stats.ECDF.KSDistance":                  "the E24 fit-generate-refit round trip compares interval ECDFs by KS distance",
	"workload.GuestByName":                   "the contention tests pick guests by the paper's names",
	"workload.HostWorkloadByName":            "the contention tests pick host workloads by the paper's names",
	"gsched.MinResponse":                     "E19's min-expected-response policy; the experiment runs as TestMinResponsePolicyAvoidsHostileMachine",
}

func TestExportsHaveProductCallers(t *testing.T) {
	fset := token.NewFileSet()
	type export struct{ key, name string }
	var exports []export
	refs := map[string]bool{}
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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declared := strings.HasPrefix(path, "internal/") || strings.HasPrefix(path, "cmd/")
		pkg := filepath.Base(filepath.Dir(path))
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				key := pkg + "." + decl.Name.Name
				if decl.Recv != nil {
					key = pkg + "." + recvName(decl.Recv.List[0].Type) + "." + decl.Name.Name
				}
				if declared && decl.Name.IsExported() {
					exports = append(exports, export{key, decl.Name.Name})
				}
				// A receiver names its type only to declare a method on it.
				decl.Recv = nil
				collectRefs(decl, []string{decl.Name.Name}, refs)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					var names []string
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						names = []string{spec.Name.Name}
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							names = append(names, n.Name)
						}
					}
					for _, n := range names {
						if declared && ast.IsExported(n) {
							exports = append(exports, export{pkg + "." + n, n})
						}
					}
					collectRefs(spec, names, refs)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var unused, stale []string
	seen := map[string]bool{}
	allowed := 0
	for _, e := range exports {
		seen[e.key] = true
		_, ok := exportAllowlist[e.key]
		switch {
		case !refs[e.name] && ok:
			allowed++
		case !refs[e.name]:
			unused = append(unused, e.key)
		case ok:
			stale = append(stale, e.key+" (now has a caller)")
		}
	}
	for key, reason := range exportAllowlist {
		if !seen[key] {
			stale = append(stale, key+" (no such export)")
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("allowlist entry %s gives no reason", key)
		}
	}
	slices.Sort(unused)
	slices.Sort(stale)
	t.Logf("scanned %d exports in internal/ and cmd/: %d allowed without a non-test caller", len(exports), allowed)
	for _, key := range unused {
		t.Errorf("%s: no non-test file names it; delete it, move it to a test file, or allowlist it with a reason", key)
	}
	for _, key := range stale {
		t.Errorf("stale allowlist entry %s", key)
	}
}

// collectRefs records every identifier under n except those spelling one of
// self, the names n declares.
func collectRefs(n ast.Node, self []string, refs map[string]bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && !slices.Contains(self, id.Name) {
			refs[id.Name] = true
		}
		return true
	})
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
