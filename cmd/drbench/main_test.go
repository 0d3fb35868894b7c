package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// schemaOf reads the schema field of a JSON artifact.
func schemaOf(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var env artifact
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return env.Schema
}

// TestMultiExperimentJSONKeepsEveryArtifact runs two experiments with one
// -json path and asserts both artifacts survive: the first at the path,
// the second at PATH.<experiment>.json, each with its own schema.
func TestMultiExperimentJSONKeepsEveryArtifact(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		args  []string
		files map[string]string // file name -> schema
	}{
		{
			args: []string{"-faultstorm", "-fuzz", "-fuzz-seeds", "3", "-bench", "crafty", "-json", filepath.Join(dir, "x.json")},
			files: map[string]string{
				"x.json":           "drbench/faultstorm/v1",
				"x.json.fuzz.json": "drbench/fuzz/v1",
			},
		},
		{
			args: []string{"-chaosstorm", "-profile", "-bench", "crafty", "-json", filepath.Join(dir, "y.json")},
			files: map[string]string{
				"y.json":              "drbench/chaos/v1",
				"y.json.profile.json": "drbench/profile/v1",
			},
		},
	} {
		var out bytes.Buffer
		if code := run(tc.args, &out); code != 0 {
			t.Fatalf("drbench %s: exit %d\n%s", strings.Join(tc.args, " "), code, out.String())
		}
		for name, want := range tc.files {
			if got := schemaOf(t, filepath.Join(dir, name)); got != want {
				t.Errorf("%s: schema %q, want %q", name, got, want)
			}
		}
	}
}

// failingArtifact is the artifact of the stand-in failing experiment.
type failingArtifact struct {
	artifact
	Verdict string `json:"verdict"`
}

// TestFailingExperimentWritesArtifact asserts that an experiment whose
// differential verdict fails still writes its artifact, and that the run
// then exits 1 without running the experiments after it.
func TestFailingExperimentWritesArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "z.json")
	ranAfter := false
	exps := []experiment{
		{name: "failing", schema: "drbench/failing/v1", unit: "cases", run: func(*config) (outcome, error) {
			return outcome{text: "failing: MISMATCH\n", rows: 1,
				artifact: &failingArtifact{Verdict: "mismatch"}, failed: true}, nil
		}},
		{name: "after", run: func(*config) (outcome, error) {
			ranAfter = true
			return outcome{rows: 1}, nil
		}},
	}
	var out bytes.Buffer
	if code := execute(exps, &config{parallel: 2}, path, &out); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if got := schemaOf(t, path); got != "drbench/failing/v1" {
		t.Errorf("schema %q, want drbench/failing/v1", got)
	}
	if ranAfter {
		t.Error("the experiment after the failing one ran")
	}
	if !strings.Contains(out.String(), "failing: MISMATCH") {
		t.Errorf("report not printed:\n%s", out.String())
	}
}

// TestVerifyHonoursBenchAndParallel asserts that -verify runs only the
// -bench subset and prints one line per benchmark, in order, plus the total,
// whatever the worker count.
func TestVerifyHonoursBenchAndParallel(t *testing.T) {
	want := "mgrid      . . . . . . . . . . . ok\n" +
		"crafty     . . . . . . . . . . . ok\n" +
		"transparency verified: 22 benchmark x configuration runs, all outputs identical to native\n"
	for _, parallel := range []string{"1", "0"} {
		var out bytes.Buffer
		if code := run([]string{"-verify", "-bench", "mgrid,crafty", "-parallel", parallel}, &out); code != 0 {
			t.Fatalf("-parallel %s: exit %d", parallel, code)
		}
		if out.String() != want {
			t.Errorf("-parallel %s: stdout\n%s\nwant\n%s", parallel, out.String(), want)
		}
	}
}
