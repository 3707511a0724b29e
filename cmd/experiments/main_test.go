package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

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

// TestRetiredFlagsUndefined: the multi-process flags are gone, so each
// is an undefined flag (exit 2) before anything runs.
func TestRetiredFlagsUndefined(t *testing.T) {
	for _, args := range [][]string{{"-spawn", "2"}, {"-shards", "0/2"}, {"-shardout", "f"}} {
		stdout, stderr, code := experiments(t, args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, "flag provided but not defined: "+args[0]) {
			t.Errorf("experiments %s: exit %d, stdout %q, stderr %q; want exit 2 on an undefined flag",
				strings.Join(args, " "), code, stdout, stderr)
		}
	}
}
