package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// Anywhere in a document: a cmd/, internal/ or examples/ path, an
	// old-style lasmq-* binary name (a dot-prefixed .lasmq-cache directory is
	// not one), or a Go benchmark's name.
	docPath   = regexp.MustCompile(`\b(?:cmd|internal|examples)/[\w./-]*\w`)
	docBinary = regexp.MustCompile(`(?:^|[^.\w/-])(lasmq-[a-z]+)`)
	docBench  = regexp.MustCompile(`\bBenchmark[A-Z0-9_]\w*`)
	// Inside code: a subcommand of the command, make targets, a Go
	// identifier of the root package, which exports nothing, a qualified
	// pkg.Ident, and a go test command's -bench pattern.
	docSubcommand = regexp.MustCompile(`(?:^|[\s/])lasmq ([a-z]\w*)`)
	docMake       = regexp.MustCompile(`(?:^|\s)make((?: +[a-z][\w-]*)+)`)
	docFacade     = regexp.MustCompile(`\blasmq\.[A-Z]\w*`)
	docQualified  = regexp.MustCompile(`(?:^|[^\w.])([a-z]\w*)\.([A-Z]\w*)`)
	docBenchCmd   = regexp.MustCompile(`\bgo test\b.*\s-bench[= ]('[^']*'|"[^"]*"|\S+)`)
	docCodeSpan   = regexp.MustCompile("`[^`\n]+`")
	makeTarget    = regexp.MustCompile(`(?m)^([a-z][\w-]*):`)
	testFunc      = regexp.MustCompile(`^(?:Test|Benchmark|Example|Fuzz)`)
)

// liveNames is what the repository defines, for deadNames to check a
// document against.
type liveNames struct {
	targets map[string]bool // make targets
	// benches maps a benchmark's name to the directories (slash-separated,
	// relative to the root) whose _test.go files define it.
	benches map[string]map[string]bool
	// decls maps an internal/ package's name to its top-level names: every
	// declaration of its non-test files, and its test files' Test…,
	// Benchmark…, Example… and Fuzz… functions.
	decls  map[string]map[string]bool
	exists func(path string) bool // whether a cmd/, internal/ or examples/ path exists
}

// TestDocsReferToLiveNames: the documents a reader runs commands from, and
// PAPER.md's component table, name only cmd/, internal/ and examples/ paths
// that exist, no lasmq-* binary, only benchmarks some _test.go file defines,
// and, in their code, only subcommands of lasmq and make targets the Makefile
// defines, no identifier of the root package, only pkg.Idents an internal/
// package declares, and go test -bench commands whose package defines the
// benchmark.
func TestDocsReferToLiveNames(t *testing.T) {
	root := filepath.Join("..", "..")
	makefile, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	live := liveNames{
		targets: make(map[string]bool),
		benches: make(map[string]map[string]bool),
		decls:   make(map[string]map[string]bool),
		exists: func(path string) bool {
			_, err := os.Stat(filepath.Join(root, path))
			return err == nil
		},
	}
	for _, m := range makeTarget.FindAllStringSubmatch(string(makefile), -1) {
		live.targets[m[1]] = true
	}
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(file string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(file, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(file))
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(rel)
		test := strings.HasSuffix(file, "_test.go")
		for _, name := range topLevelNames(f, test) {
			if test && strings.HasPrefix(name, "Benchmark") {
				addName(live.benches, name, dir)
			}
			if strings.HasPrefix(dir, "internal/") {
				addName(live.decls, path.Base(dir), name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "PAPER.md", ".claude/skills/verify/SKILL.md"} {
		data, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, bad := range deadNames(string(data), live) {
			t.Errorf("%s names %s", doc, bad)
		}
	}
}

// topLevelNames lists a file's package-level names; of a test file, only its
// Test…, Benchmark…, Example… and Fuzz… functions.
func topLevelNames(f *ast.File, test bool) []string {
	var names []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && (!test || testFunc.MatchString(d.Name.Name)) {
				names = append(names, d.Name.Name)
			}
		case *ast.GenDecl:
			if test {
				continue
			}
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					names = append(names, sp.Name.Name)
				case *ast.ValueSpec:
					for _, id := range sp.Names {
						names = append(names, id.Name)
					}
				}
			}
		}
	}
	return names
}

func addName(m map[string]map[string]bool, key, name string) {
	if m[key] == nil {
		m[key] = make(map[string]bool)
	}
	m[key][name] = true
}

// deadNames lists what text names that does not exist: a cmd/, internal/ or
// examples/ path, a lasmq-* binary, a benchmark no _test.go file defines, or
// in its code spans and fenced blocks a lasmq subcommand, a make target, a
// lasmq.Ident, a pkg.Ident that internal/pkg does not declare, or a benchmark
// of a go test -bench command that its package does not define.
func deadNames(text string, live liveNames) []string {
	var dead []string
	for _, m := range docPath.FindAllString(text, -1) {
		if !live.exists(m) {
			dead = append(dead, "missing path "+m)
		}
	}
	for _, m := range docBinary.FindAllStringSubmatch(text, -1) {
		dead = append(dead, "binary "+m[1])
	}
	for _, m := range docBench.FindAllString(text, -1) {
		if len(live.benches[m]) == 0 {
			dead = append(dead, "benchmark "+m)
		}
	}
	var code []string
	fenced := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
		} else if fenced {
			code = append(code, line)
		} else {
			code = append(code, docCodeSpan.FindAllString(line, -1)...)
		}
	}
	for _, c := range code {
		c = strings.Trim(c, "`")
		for _, m := range docSubcommand.FindAllStringSubmatch(c, -1) {
			if commands[m[1]] == nil {
				dead = append(dead, "subcommand lasmq "+m[1])
			}
		}
		for _, m := range docMake.FindAllStringSubmatch(c, -1) {
			for _, target := range strings.Fields(m[1]) {
				if !live.targets[target] {
					dead = append(dead, "make target "+target)
				}
			}
		}
		for _, m := range docFacade.FindAllString(c, -1) {
			dead = append(dead, "root package identifier "+m)
		}
		for _, m := range docQualified.FindAllStringSubmatch(c, -1) {
			if decls, ok := live.decls[m[1]]; ok && !decls[m[2]] {
				dead = append(dead, "undeclared "+m[1]+"."+m[2])
			}
		}
		if m := docBenchCmd.FindStringSubmatch(c); m != nil {
			dead = append(dead, benchOutsidePackage(c, m[1], live.benches)...)
		}
	}
	return dead
}

// benchOutsidePackage lists the benchmarks of a go test command's -bench
// pattern that none of the packages the command names (., ./dir or ./dir/...)
// defines. A command that names no package is not checked.
func benchOutsidePackage(cmd, pattern string, benches map[string]map[string]bool) []string {
	var pkgs []string
	for _, f := range strings.Fields(cmd) {
		if f == "." || strings.HasPrefix(f, "./") {
			pkgs = append(pkgs, path.Clean(f))
		}
	}
	if len(pkgs) == 0 {
		return nil
	}
	var dead []string
	for _, name := range docBench.FindAllString(pattern, -1) {
		found := false
		for _, pkg := range pkgs {
			prefix, all := strings.CutSuffix(pkg, "...")
			for dir := range benches[name] {
				found = found || dir == pkg || all && strings.HasPrefix(dir+"/", prefix)
			}
		}
		if !found {
			dead = append(dead, "benchmark "+name+" outside "+strings.Join(pkgs, " "))
		}
	}
	return dead
}

// TestDeadNamesFires: each kind of dead name is caught, and the live forms
// pass.
func TestDeadNamesFires(t *testing.T) {
	live := liveNames{
		targets: map[string]bool{"check": true, "layering": true},
		benches: map[string]map[string]bool{"BenchmarkScale1M": {"internal/experiments": true}},
		decls: map[string]map[string]bool{
			"obs":    {"Ring": true, "Counters": true},
			"engine": {"Run": true, "TestEnginesAgree": true},
		},
		exists: func(path string) bool {
			return path == "cmd/lasmq" || path == "internal/yarn" || path == "examples/geo" ||
				path == "internal/experiments"
		},
	}
	ok := "Run `go run ./cmd/lasmq bench -seeds 2 -cache .lasmq-cache` or\n```sh\nmake check layering\nlasmq sim -jobs 5\n" +
		"go run ./examples/geo\ngo test -bench 'BenchmarkScale1M$' ./internal/experiments\n" +
		"go test -run '^$' -bench '^BenchmarkScale1M$' ./...\ngo test -bench . ./internal/...\n```\n" +
		"to make sure internal/yarn works; the `Benchmark*` functions and `lasmq.go`\nin `core`, and lasmq.Run in prose, " +
		"name nothing dead, nor do `obs.Ring`, `engine.Run(specs, p, cfg)`, `engine.TestEnginesAgree`, `fluid.go`, " +
		"`strings.Builder`, `res.Counters` and obs.ForShard in prose."
	if dead := deadNames(ok, live); len(dead) != 0 {
		t.Errorf("live names reported dead: %q", dead)
	}
	for _, text := range []string{
		"see cmd/lasmq-sim",
		"the block store in `internal/blockstore`",
		"```sh\ngo run ./examples/wordcount\n```",
		"the lasmq-live binary",
		"run `lasmq simulate`",
		"```\ngo run ./cmd/lasmq bogus\n```",
		"run `make check gone`",
		"the BenchmarkFig5Cluster figure bench",
		"BenchmarkScale1Million",
		"```sh\ngo test -bench '^BenchmarkScale1MEngine$' .\n```",
		"```sh\ngo test -bench '^BenchmarkScale1M$' .\n```",
		"run `go test -run '^$' -bench 'BenchmarkScale1M' -benchtime=1x ./internal/engine`",
		"call `lasmq.RunCluster(specs, p, cfg)`",
		"```go\nmq, err := lasmq.NewScheduler(cfg)\n```",
		"a sharded run calls `obs.ForShard`",
		"```go\nc := obs.NewCounters()\n```",
		"`engine.TestEnginesAgreeGone`",
	} {
		if dead := deadNames(text, live); len(dead) == 0 {
			t.Errorf("%q: no dead name found", text)
		}
	}
}
