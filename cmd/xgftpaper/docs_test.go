package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// expDocs are the files whose -exp selections must name experiments
// that exist.
var expDocs = []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", "results/README.md", "Makefile"}

// expSelection matches an -exp flag and its comma-separated value;
// placeholders such as "-exp <id>" do not match.
var expSelection = regexp.MustCompile(`-exp[ =]([a-z0-9][a-z0-9,]*)`)

// docSelections returns every experiment name that path selects with
// -exp.
func docSelections(t *testing.T, path string) []string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", path))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range expSelection.FindAllStringSubmatch(string(raw), -1) {
		for _, name := range strings.Split(m[1], ",") {
			if name != "" {
				names = append(names, name)
			}
		}
	}
	return names
}

// TestDocsNameRegistryExperiments checks the docs against the
// registry: every -exp selection in them names a row, an alias or
// all, and EXPERIMENTS.md selects every row by name.
func TestDocsNameRegistryExperiments(t *testing.T) {
	known := map[string]bool{"all": true}
	for _, e := range registry {
		known[e.name] = true
		if e.alias != "" {
			known[e.alias] = true
		}
	}
	for _, doc := range expDocs {
		for _, name := range docSelections(t, doc) {
			if !known[name] {
				t.Errorf("%s selects -exp %s, which is not an experiment, an alias or all", doc, name)
			}
		}
	}
	documented := map[string]bool{}
	for _, name := range docSelections(t, "EXPERIMENTS.md") {
		documented[name] = true
	}
	for _, e := range registry {
		if !documented[e.name] {
			t.Errorf("EXPERIMENTS.md never selects -exp %s", e.name)
		}
	}
}
