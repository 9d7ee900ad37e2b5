package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// Anywhere in a document: a cmd/, internal/ or examples/ path, or an
	// old-style lasmq-* binary name (a dot-prefixed .lasmq-cache directory is
	// not one).
	docPath   = regexp.MustCompile(`\b(?:cmd|internal|examples)/[\w./-]*\w`)
	docBinary = regexp.MustCompile(`(?:^|[^.\w/-])(lasmq-[a-z]+)`)
	// Inside code: a subcommand of the command, and make targets.
	docSubcommand = regexp.MustCompile(`(?:^|[\s/])lasmq ([a-z]\w*)`)
	docMake       = regexp.MustCompile(`(?:^|\s)make((?: +[a-z][\w-]*)+)`)
	docCodeSpan   = regexp.MustCompile("`[^`\n]+`")
	makeTarget    = regexp.MustCompile(`(?m)^([a-z][\w-]*):`)
)

// TestDocsReferToLiveNames: the documents a reader runs commands from, and
// PAPER.md's component table, name only cmd/, internal/ and examples/ paths
// that exist, no lasmq-* binary, and, in their code, only subcommands of
// lasmq and make targets the Makefile defines.
func TestDocsReferToLiveNames(t *testing.T) {
	root := filepath.Join("..", "..")
	makefile, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	targets := make(map[string]bool)
	for _, m := range makeTarget.FindAllStringSubmatch(string(makefile), -1) {
		targets[m[1]] = true
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "PAPER.md", ".claude/skills/verify/SKILL.md"} {
		data, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, bad := range deadNames(string(data), targets, func(path string) bool {
			_, err := os.Stat(filepath.Join(root, path))
			return err == nil
		}) {
			t.Errorf("%s names %s", doc, bad)
		}
	}
}

// deadNames lists what text names that does not exist: a cmd/, internal/ or
// examples/ path for which exists is false, a lasmq-* binary, or in its code
// spans and fenced blocks a lasmq subcommand outside commands or a make target
// outside targets.
func deadNames(text string, targets map[string]bool, exists func(string) bool) []string {
	var dead []string
	for _, m := range docPath.FindAllString(text, -1) {
		if !exists(m) {
			dead = append(dead, "missing path "+m)
		}
	}
	for _, m := range docBinary.FindAllStringSubmatch(text, -1) {
		dead = append(dead, "binary "+m[1])
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
				if !targets[target] {
					dead = append(dead, "make target "+target)
				}
			}
		}
	}
	return dead
}

// TestDeadNamesFires: each kind of dead name is caught, and the live forms
// pass.
func TestDeadNamesFires(t *testing.T) {
	targets := map[string]bool{"check": true, "layering": true}
	exists := func(path string) bool {
		return path == "cmd/lasmq" || path == "internal/yarn" || path == "examples/geo"
	}
	live := "Run `go run ./cmd/lasmq bench -seeds 2 -cache .lasmq-cache` or\n```sh\nmake check layering\nlasmq sim -jobs 5\ngo run ./examples/geo\n```\nto make sure internal/yarn works."
	if dead := deadNames(live, targets, exists); len(dead) != 0 {
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
	} {
		if dead := deadNames(text, targets, exists); len(dead) == 0 {
			t.Errorf("%q: no dead name found", text)
		}
	}
}
