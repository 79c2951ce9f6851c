package main

import (
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func registryNames() []string {
	var names []string
	for _, e := range experiments.Registry {
		names = append(names, e.Name)
	}
	return names
}

// A bad name must fail before any experiment runs (it used to fail only
// when reached, after the ones before it had run and with their -json
// report thrown away), and the error lists what the registry has.
func TestResolveChecksEveryNameFirst(t *testing.T) {
	jsonPath := t.TempDir() + "/out.json"
	err := run(runOpts{quick: true, parallel: true, jsonPath: jsonPath}, []string{"fig9", "nosuch"})
	if err == nil || !strings.Contains(err.Error(), `"nosuch"`) {
		t.Fatalf("err = %v, want unknown experiment", err)
	}
	for _, name := range registryNames() {
		if !strings.Contains(err.Error(), " "+name+" ") {
			t.Errorf("error does not list %q: %v", name, err)
		}
	}
	if _, statErr := os.Stat(jsonPath); statErr == nil {
		t.Error("a report was written although resolution failed")
	}
	all, err := resolve(nil)
	if err != nil || len(all) != len(experiments.Registry) {
		t.Errorf("no arguments: %d experiments, err %v; want all %d", len(all), err, len(experiments.Registry))
	}
	two, err := resolve([]string{"kv", "fig1"})
	if err != nil || len(two) != 2 || two[0].Name != "kv" || two[1].Name != "fig1" {
		t.Errorf("resolve(kv fig1) = %v, %v", two, err)
	}
}

// The package comment's experiment list is written by hand; the registry
// is what runs.
func TestPackageCommentListsRegistry(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?s)// Experiments: (.*?) all\.`).FindSubmatch(src)
	if m == nil {
		t.Fatal("main.go: no `// Experiments: ... all.` list in the package comment")
	}
	listed := strings.Fields(strings.ReplaceAll(string(m[1]), "//", " "))
	want := registryNames()
	sort.Strings(listed)
	sort.Strings(want)
	if strings.Join(listed, " ") != strings.Join(want, " ") {
		t.Errorf("package comment lists\n  %v\nregistry has\n  %v", listed, want)
	}
}
