package main

import (
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
