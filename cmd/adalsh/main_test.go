package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestValidateMethodFlags(t *testing.T) {
	cases := []struct {
		name     string
		method   string
		query    string
		save     string
		load     string
		planIn   string
		planOut  string
		wantFlag string // "" means valid
	}{
		{name: "ada allows everything", method: "ada", query: "1,2", save: "s.snap", load: "l.snap", planIn: "p.json", planOut: "q.json"},
		{name: "lsh plain", method: "lsh"},
		{name: "pairs plain", method: "pairs"},
		{name: "lsh rejects query", method: "lsh", query: "1", wantFlag: "-query"},
		{name: "pairs rejects query", method: "pairs", query: "0,3", wantFlag: "-query"},
		{name: "lsh rejects save-state", method: "lsh", save: "s.snap", wantFlag: "-save-state"},
		{name: "pairs rejects load-state", method: "pairs", load: "s.snap", wantFlag: "-load-state"},
		{name: "lsh rejects plan", method: "lsh", planIn: "p.json", wantFlag: "-plan"},
		{name: "pairs rejects save-plan", method: "pairs", planOut: "p.json", wantFlag: "-save-plan"},
		{name: "first offending flag named", method: "lsh", query: "1", save: "s.snap", wantFlag: "-query"},
		// Unknown methods fail later in the method switch; the stream
		// flags still name themselves first.
		{name: "unknown method rejects query", method: "bogus", query: "1", wantFlag: "-query"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateMethodFlags(tc.method, tc.query, tc.save, tc.load, tc.planIn, tc.planOut)
			if tc.wantFlag == "" {
				if err != nil {
					t.Fatalf("want valid, got %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("want an error naming %s, got nil", tc.wantFlag)
			}
			if !strings.Contains(err.Error(), tc.wantFlag) {
				t.Errorf("error %q does not name %s", err, tc.wantFlag)
			}
			if !strings.Contains(err.Error(), tc.method) {
				t.Errorf("error %q does not name the method %q", err, tc.method)
			}
		})
	}
}

// TestMixedWidthInputExitsWithError runs the command on a JSON dataset
// whose vectors differ in dimension under a cosine rule: it must exit
// with an error naming the record, not panic in the cosine kernel
// while the plan is designed. The test binary re-runs itself as the
// command.
func TestMixedWidthInputExitsWithError(t *testing.T) {
	if os.Getenv("ADALSH_TEST_MAIN") == "1" {
		os.Args = append([]string{"adalsh"}, strings.Fields(os.Getenv("ADALSH_TEST_ARGS"))...)
		main()
		os.Exit(0)
	}
	path := filepath.Join(t.TempDir(), "mixed.json")
	data := `{"records":[` +
		`{"entity":0,"fields":[{"vector":[1,0,0,0]}]},{"entity":0,"fields":[{"vector":[1,0.1,0,0]}]},` +
		`{"entity":1,"fields":[{"vector":[0,1]}]},{"entity":1,"fields":[{"vector":[0.1,1]}]}]}`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestMixedWidthInputExitsWithError$")
	// The rule is one word per argument so the child can split on
	// spaces: cosine@0<=0.2 parses as 'cosine@0 <= 0.2'.
	cmd.Env = append(os.Environ(), "ADALSH_TEST_MAIN=1", "ADALSH_TEST_ARGS=-input "+path+" -rule cosine@0<=0.2 -k 1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatalf("command did not fail (err %v); output:\n%s", err, out)
	}
	if strings.Contains(string(out), "panic") || exit.ExitCode() != 1 {
		t.Fatalf("command exited %d, want a plain error (exit 1); output:\n%s", exit.ExitCode(), out)
	}
	if !strings.Contains(string(out), "record 2") {
		t.Fatalf("error does not name the mismatched record; output:\n%s", out)
	}
}
