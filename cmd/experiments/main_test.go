package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"pathsched/internal/bench"
	"pathsched/internal/pipeline"
	"pathsched/internal/store"
)

// mainEnv, when set, makes the test binary run experiments' main
// instead of the tests, so the tests drive the real command line.
const mainEnv = "EXPERIMENTS_TEST_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// experiments runs the command in a temporary directory and returns its
// stdout, stderr and exit code.
func experiments(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(self, args...)
	cmd.Dir = t.TempDir()
	cmd.Env = append(os.Environ(), mainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("experiments %s: %v", strings.Join(args, " "), err)
		}
		code = ee.ExitCode()
	}
	return out.String(), errOut.String(), code
}

// mustExperiments is experiments for a run that must succeed.
func mustExperiments(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	stdout, stderr, code := experiments(t, args...)
	if code != 0 {
		t.Fatalf("experiments %s: exit %d\n%s", strings.Join(args, " "), code, stderr)
	}
	return stdout, stderr
}

// storeEntries counts the entries left in the store at dir.
func storeEntries(t *testing.T, dir string) int {
	t.Helper()
	st, err := store.OpenExisting(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	entries, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	return len(entries)
}

// TestStoreGCAfterEveryMode: -storegc collects after the run in every
// mode and reports on stderr, so -json stdout stays exactly the JSON
// document a storeless run prints, and -ablate collects too.
func TestStoreGCAfterEveryMode(t *testing.T) {
	want, _ := mustExperiments(t, "-bench", "alt", "-json")
	for _, mode := range [][]string{{"-json"}, {"-ablate"}} {
		dir := filepath.Join(t.TempDir(), "store")
		args := append([]string{"-bench", "alt", "-store", dir, "-storegc", "1"}, mode...)
		stdout, stderr := mustExperiments(t, args...)
		if mode[0] == "-json" && stdout != want {
			t.Errorf("experiments %s: stdout differs from -bench alt -json\ngot:\n%s\nwant:\n%s", strings.Join(args, " "), stdout, want)
		}
		if !strings.Contains(stderr, "# store gc: removed ") {
			t.Errorf("experiments %s: no collection summary on stderr: %q", strings.Join(args, " "), stderr)
		}
		if n := storeEntries(t, dir); n != 0 {
			t.Errorf("experiments %s: %d entries remain over a 1-byte budget", strings.Join(args, " "), n)
		}
	}
}

// TestStoreRefusesNonStoreDir: -store over a directory that is not a
// store (no marker) exits 1 before running anything, and -storegc
// deletes nothing there: the file stays and no tmp/ appears.
func TestStoreRefusesNonStoreDir(t *testing.T) {
	dir := t.TempDir()
	readme := filepath.Join(dir, "docs", "readme")
	if err := os.MkdirAll(filepath.Dir(readme), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(readme, []byte("not an entry\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code := experiments(t, "-bench", "alt", "-json", "-store", dir, "-storegc", "1")
	if code != 1 || stdout != "" || !strings.Contains(stderr, "is not an artifact store") {
		t.Errorf("experiments -store <not a store>: exit %d, stdout %q, stderr %q; want exit 1 and a refusal", code, stdout, stderr)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "docs" {
		t.Fatalf("experiments -store <not a store> changed the directory: %v", entries)
	}
	if data, err := os.ReadFile(readme); err != nil || string(data) != "not an entry\n" {
		t.Fatalf("docs/readme now %q, err %v", data, err)
	}
}

// TestRetiredFlagsUndefined: the multi-process flags and -nocache (a
// plain run keeps no compile memo to disable) are gone, so each is an
// undefined flag (exit 2) before anything runs.
func TestRetiredFlagsUndefined(t *testing.T) {
	for _, args := range [][]string{{"-spawn", "2"}, {"-shards", "0/2"}, {"-shardout", "f"}, {"-nocache"}} {
		stdout, stderr, code := experiments(t, args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, "flag provided but not defined: "+args[0]) {
			t.Errorf("experiments %s: exit %d, stdout %q, stderr %q; want exit 2 on an undefined flag",
				strings.Join(args, " "), code, stdout, stderr)
		}
	}
}

// TestBadFlagsRejectedBeforeRunning: a flag value the run would ignore
// or fail on only after building a benchmark is a usage error instead:
// exit 2 with the reason on stderr, nothing on stdout, and the -store
// directory never created. So is a flag that the chosen mode ignores:
// -ablate reads only -bench, -j, -check, -validate, -store, -storegc
// and -cachestats, and -json prints no report table or statistics.
func TestBadFlagsRejectedBeforeRunning(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-json", "-only", "fig9"}, `experiments: unknown -only report "fig9"`},
		{[]string{"-json", "-bliters", "5"}, "experiments: -bliters only applies with -profiler bl"},
		{[]string{"-json", "-profiler", "bl", "-bliters", "-1"}, "experiments: -bliters -1 is negative"},
		{[]string{"-json", "-storegc", "-5"}, "experiments: -storegc -5 is negative"},
		{[]string{"-json", "-profiler", "bogus"}, `experiments: unknown -profiler "bogus"`},
		{[]string{"-json", "-depth", "-3"}, "experiments: -depth -3 is negative"},

		{[]string{"-ablate", "-json"}, "experiments: -ablate ignores -json"},
		{[]string{"-ablate", "-only", "summary"}, "experiments: -ablate ignores -only"},
		{[]string{"-ablate", "-realistic"}, "experiments: -ablate ignores -realistic"},
		{[]string{"-ablate", "-ways", "2"}, "experiments: -ablate ignores -ways"},
		{[]string{"-ablate", "-depth", "4"}, "experiments: -ablate ignores -depth"},
		{[]string{"-ablate", "-profiler", "bl", "-bliters", "3"}, "experiments: -ablate ignores -bliters"},
		{[]string{"-ablate", "-profiler", "window"}, "experiments: -ablate ignores -profiler"},
		{[]string{"-ablate", "-exact"}, "experiments: -ablate ignores -exact"},
		{[]string{"-ablate", "-exactnodes", "16"}, "experiments: -ablate ignores -exactnodes"},
		{[]string{"-ablate", "-exactsearch", "1000"}, "experiments: -ablate ignores -exactsearch"},
		{[]string{"-ablate", "-gapstats"}, "experiments: -ablate ignores -gapstats"},
		{[]string{"-ablate", "-profstats"}, "experiments: -ablate ignores -profstats"},
		{[]string{"-ablate", "-compilestats"}, "experiments: -ablate ignores -compilestats"},

		{[]string{"-json", "-only", "summary"}, "experiments: -json ignores -only"},
		{[]string{"-json", "-cachestats"}, "experiments: -json ignores -cachestats"},
		{[]string{"-json", "-profstats"}, "experiments: -json ignores -profstats"},
		{[]string{"-json", "-compilestats"}, "experiments: -json ignores -compilestats"},
	} {
		dir := filepath.Join(t.TempDir(), "store")
		args := append([]string{"-bench", "alt", "-store", dir}, tc.args...)
		stdout, stderr, code := experiments(t, args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, tc.want) {
			t.Errorf("experiments %s: exit %d, stdout %q, stderr %q; want exit 2 and %q",
				strings.Join(args, " "), code, stdout, stderr, tc.want)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("experiments %s: the store directory exists (err %v); nothing should run", strings.Join(args, " "), err)
		}
	}
}

// TestProfStatsReportsAutomatonSizes: -profstats prints, in each
// benchmark's section, its training automaton's node total, which is
// the sum over Result.ProfStats' procedures, and one line per
// non-empty procedure with no successor-table column (the automaton
// has one successor representation).
func TestProfStatsReportsAutomatonSizes(t *testing.T) {
	stdout, _ := mustExperiments(t, "-only", "summary", "-profstats", "-bench", "alt,gcc")
	if strings.Contains(stdout, "succ-table") {
		t.Errorf("-profstats still prints a successor-table column:\n%s", stdout)
	}
	runner := pipeline.NewRunner(pipeline.Options{Check: pipeline.CheckOff, Validate: pipeline.ValidateOff})
	for _, name := range []string{"alt", "gcc"} {
		r, err := runner.RunBenchmark(bench.ByName(name), []pipeline.Scheme{pipeline.SchemeBB})
		if err != nil {
			t.Fatal(err)
		}
		nodes := 0
		for _, a := range r.ProfStats.Automaton {
			nodes += a.Nodes
		}
		// gcc's window automaton is the suite's largest; pinning its size
		// catches an automaton that interns or trims differently.
		if name == "gcc" && nodes != 188752 {
			t.Errorf("gcc: %d automaton nodes, want 188752", nodes)
		}
		_, section, ok := strings.Cut(stdout, "\n"+name+": scheme=window\n")
		if !ok {
			t.Fatalf("-profstats prints no section for %s:\n%s", name, stdout)
		}
		section, _, _ = strings.Cut(section, ": scheme=")
		want := fmt.Sprintf("  path automaton: %d nodes over %d procs\n", nodes, len(r.ProfStats.Automaton))
		if !strings.Contains(section, want) {
			t.Errorf("%s: -profstats section lacks %q:\n%s", name, want, section)
		}
	}
}
