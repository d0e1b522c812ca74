package main

import (
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docsCitingTests are the documents whose test, benchmark and fuzz names
// readers run or look up; the build-and-verify notes kept under a dot
// directory's skills/ (skillNotes) are cited the same way.
var docsCitingTests = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

const skillNotes = ".*/skills/*/SKILL.md"

var (
	citedTestName   = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*`)
	definedTestName = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)[A-Za-z0-9_]*)\(`)
)

// TestDocsCiteDefinedTests checks that every Test*, Benchmark* and Fuzz*
// name the documents and skill notes cite is defined in some _test.go
// file of the tree, so a renamed or deleted test cannot leave a stale
// pointer behind. A cited benchmark name may also be the prefix of
// defined ones, as a -bench pattern is.
func TestDocsCiteDefinedTests(t *testing.T) {
	defined := map[string]bool{}
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
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range definedTestName.FindAllSubmatch(src, -1) {
			defined[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	notes, err := filepath.Glob(skillNotes)
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range append(docsCitingTests, notes...) {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range citedTestName.FindAllString(string(text), -1) {
			if !defined[name] && !(strings.HasPrefix(name, "Benchmark") && definesPrefix(defined, name)) {
				t.Errorf("%s cites %s, which no _test.go file defines", doc, name)
			}
		}
	}
}

// definesPrefix reports whether some defined name starts with prefix.
func definesPrefix(defined map[string]bool, prefix string) bool {
	for name := range defined {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// flagCommands are the repository's commands whose flags the documents
// cite.
var flagCommands = []string{"stbench", "stserve", "sttrace", "metricscheck", "tracecheck"}

var (
	definedFlag = regexp.MustCompile(`\bflag\.[A-Za-z0-9]+\((?:&\w+, )?"([^"]+)"`)
	codeSpan    = regexp.MustCompile("`([^`]+)`")
	// commandRun is one invocation: the command, then its arguments up to
	// a shell operator or a comment.
	commandRun = regexp.MustCompile(`(?:^|[\s/])(` + strings.Join(flagCommands, "|") + `)(\s[^|;&<>()#]*)?`)
	flagToken  = regexp.MustCompile(`(?:^|\s)--?([A-Za-z][\w-]*)`)
)

// TestDocsCiteDefinedFlags checks that every flag the documents and skill
// notes pass to one of the repository's commands, inside a code span or a
// fenced block, is defined by that command's flag calls, so a deleted or
// renamed flag cannot leave a stale invocation behind.
func TestDocsCiteDefinedFlags(t *testing.T) {
	defined := map[string]map[string]bool{}
	for _, cmd := range flagCommands {
		files, err := filepath.Glob(filepath.Join("cmd", cmd, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no sources for command %s: %v", cmd, err)
		}
		defined[cmd] = map[string]bool{}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range definedFlag.FindAllSubmatch(src, -1) {
				defined[cmd][string(m[1])] = true
			}
		}
	}
	notes, err := filepath.Glob(skillNotes)
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range append(docsCitingTests, notes...) {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range codeSnippets(string(text)) {
			for _, run := range commandRun.FindAllStringSubmatch(s.code, -1) {
				for _, f := range flagToken.FindAllStringSubmatch(run[2], -1) {
					if !defined[run[1]][f[1]] {
						t.Errorf("%s:%d passes -%s to %s, which defines no such flag", doc, s.line, f[1], run[1])
					}
				}
			}
		}
	}
}

// goNameSpan is a code span shaped pkg.Name, pkg.Type.Member or
// Type.Member.
var goNameSpan = regexp.MustCompile(`^([A-Za-z]\w*)\.([A-Z]\w*)(?:\.([A-Z]\w*))?$`)

// TestDocsCiteDefinedNames checks that every code span in the documents and
// skill notes shaped pkg.Name or pkg.Type.Member, with pkg one of
// internal/'s packages, or Type.Member, with Type capitalized, names what
// the type-checked tree declares: a Type.Member span resolves if some
// package under internal/ declares Type with that field or method. So a
// deleted or renamed function, type or field cannot leave a stale
// citation behind.
func TestDocsCiteDefinedNames(t *testing.T) {
	internal := map[string]*types.Package{} // by package name
	for path, pkg := range loadTree(t) {
		if strings.HasPrefix(path, "softtimers/internal/") {
			internal[pkg.types.Name()] = pkg.types
		}
	}
	notes, err := filepath.Glob(skillNotes)
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range append(docsCitingTests, notes...) {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range codeSnippets(string(text)) {
			m := goNameSpan.FindStringSubmatch(s.code)
			if m == nil {
				continue
			}
			var defined bool
			switch pkg := internal[m[1]]; {
			case pkg != nil:
				defined = declares(pkg, m[2], m[3])
			case m[3] == "" && token.IsExported(m[1]):
				for _, pkg := range internal {
					defined = defined || declares(pkg, m[1], m[2])
				}
			default:
				continue // not a Go name of the tree
			}
			if !defined {
				t.Errorf("%s:%d cites %s, which the tree does not declare", doc, s.line, s.code)
			}
		}
	}
}

// declares reports whether pkg declares name at package level and, when
// member is not empty, name is a type with that field or method.
func declares(pkg *types.Package, name, member string) bool {
	obj := pkg.Scope().Lookup(name)
	if obj == nil || member == "" {
		return obj != nil
	}
	if _, ok := obj.(*types.TypeName); !ok {
		return false
	}
	sel, _, _ := types.LookupFieldOrMethod(obj.Type(), true, pkg, member)
	return sel != nil
}

// codeSnippet is a piece of a document set as code, and the line it
// starts on.
type codeSnippet struct {
	line int
	code string
}

// codeSnippets returns each line of the document's fenced blocks, with
// its backslash-continued lines joined on, and each inline code span,
// with its line breaks flattened to spaces.
func codeSnippets(doc string) []codeSnippet {
	var out []codeSnippet
	lines := strings.Split(doc, "\n")
	fenced := false
	for i := 0; i < len(lines); i++ {
		if strings.HasPrefix(strings.TrimSpace(lines[i]), "```") {
			fenced = !fenced
			lines[i] = ""
			continue
		}
		if !fenced {
			continue
		}
		start, code := i, lines[i]
		lines[i] = ""
		for strings.HasSuffix(code, `\`) && i+1 < len(lines) {
			i++
			code = strings.TrimSuffix(code, `\`) + " " + lines[i]
			lines[i] = ""
		}
		out = append(out, codeSnippet{start + 1, code})
	}
	// Fenced lines are blanked, so spans are found in prose only, and
	// line numbers still count from the top of the document.
	prose := strings.Join(lines, "\n")
	for _, m := range codeSpan.FindAllStringSubmatchIndex(prose, -1) {
		line := 1 + strings.Count(prose[:m[0]], "\n")
		out = append(out, codeSnippet{line, strings.ReplaceAll(prose[m[2]:m[3]], "\n", " ")})
	}
	return out
}
