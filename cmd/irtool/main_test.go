package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// mainEnv, when set, makes the test binary run irtool's main instead of
// the tests, so the tests drive the real command line: arguments, exit
// codes, stdout, stderr and the files it writes.
const mainEnv = "IRTOOL_TEST_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// irtool runs the command in dir and returns its stdout, stderr and
// exit code.
func irtool(t *testing.T, dir string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(self, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), mainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("irtool %s: %v", strings.Join(args, " "), err)
		}
		code = ee.ExitCode()
	}
	return out.String(), errOut.String(), code
}

// mustIrtool is irtool for a command that must succeed.
func mustIrtool(t *testing.T, dir string, args ...string) (stdout, stderr string) {
	t.Helper()
	stdout, stderr, code := irtool(t, dir, args...)
	if code != 0 {
		t.Fatalf("irtool %s: exit %d\n%s", strings.Join(args, " "), code, stderr)
	}
	return stdout, stderr
}

// goldenSums reads testdata/SHA256SUMS: the hashes of the outputs too
// large to keep verbatim.
func goldenSums(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "SHA256SUMS"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sums := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if sum, name, ok := strings.Cut(sc.Text(), "  "); ok {
			sums[name] = sum
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return sums
}

// checkGolden compares output name with testdata/name when that file
// exists, and with its SHA256SUMS entry otherwise.
func checkGolden(t *testing.T, sums map[string]string, name, got string) {
	t.Helper()
	if want, err := os.ReadFile(filepath.Join("testdata", name)); err == nil {
		if got != string(want) {
			t.Errorf("%s differs from testdata/%s\ngot:\n%s\nwant:\n%s", name, name, got, want)
		}
		return
	}
	want, ok := sums[name]
	if !ok {
		t.Fatalf("%s has no golden: neither testdata/%s nor a SHA256SUMS entry", name, name)
	}
	h := sha256.Sum256([]byte(got))
	if sum := hex.EncodeToString(h[:]); sum != want {
		t.Errorf("%s: sha256 %s, SHA256SUMS records %s", name, sum, want)
	}
}

// TestGoldenOutputs pins irtool's profiling commands byte for byte: the
// dumped program, a 200-event trace, the five hottest paths, the edge
// and path profile files with profile's stderr line, and the P4 compile
// from those files. alt is a single loop; li's recursion nests
// activations in every stream.
func TestGoldenOutputs(t *testing.T) {
	sums := goldenSums(t)
	for _, b := range []string{"alt", "li"} {
		t.Run(b, func(t *testing.T) {
			dir := t.TempDir()
			prog, _ := mustIrtool(t, dir, "dump", "-bench", b)
			checkGolden(t, sums, b+".ir", prog)
			irFile := b + ".ir"
			if err := os.WriteFile(filepath.Join(dir, irFile), []byte(prog), 0o644); err != nil {
				t.Fatal(err)
			}

			trace, _ := mustIrtool(t, dir, "trace", "-n", "200", irFile)
			checkGolden(t, sums, b+".trace", trace)
			paths, _ := mustIrtool(t, dir, "paths", "-top", "5", irFile)
			checkGolden(t, sums, b+".paths", paths)

			eprof, pprof := b+".eprof", b+".pprof"
			_, stderr := mustIrtool(t, dir, "profile", "-edge", eprof, "-path", pprof, irFile)
			checkGolden(t, sums, b+".profile.stderr", stderr)
			for _, f := range []string{eprof, pprof} {
				data, err := os.ReadFile(filepath.Join(dir, f))
				if err != nil {
					t.Fatal(err)
				}
				checkGolden(t, sums, f, string(data))
			}

			bin, _ := mustIrtool(t, dir, "compile", "-scheme", "P4", "-edge", eprof, "-path", pprof, irFile)
			checkGolden(t, sums, b+".p4.ir", bin)
		})
	}
}

// TestBadProfilesRejected: a profile naming a block its procedure does
// not have (alt's main has 7) is a line-numbered error and exit 1 from
// every command that reads it, never a panic or a misreport. The last
// case must also fail without sizing anything by the id it names.
func TestBadProfilesRejected(t *testing.T) {
	dir := t.TempDir()
	prog, _ := mustIrtool(t, dir, "dump", "-bench", "alt")
	files := map[string]string{
		"alt.ir":         prog,
		"bad.pprof":      "pathprofile depth=15 maxblocks=64\nproc 0\npath 3: b0 b999\n",
		"bad.eprof":      "edgeprofile\nproc 0 entries=1\nblock b0: 1\nblock b999: 1\nedge b0->b999: 1\n",
		"huge.eprof":     "edgeprofile\nproc 0 entries=1\nblock b2000000000: 1\n",
		"negdepth.pprof": "pathprofile depth=-3 maxblocks=64\nproc 0\npath 3: b0 b1\n",
		"negmax.pprof":   "pathprofile depth=15 maxblocks=-1\nproc 0\npath 3: b0 b1\n",
	}
	for name, text := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"compile", "-scheme", "P4", "-path", "bad.pprof", "alt.ir"}, 1,
			"irtool: profile: line 3: block b999 out of range: proc 0 has 7 blocks\n"},
		{[]string{"compile", "-scheme", "M4", "-edge", "bad.eprof", "alt.ir"}, 1,
			"irtool: profile: line 4: block b999 out of range: proc 0 has 7 blocks\n"},
		{[]string{"check", "-edge", "bad.eprof", "alt.ir"}, 1,
			"irtool: profile: line 4: block b999 out of range: proc 0 has 7 blocks\n"},
		{[]string{"check", "-path", "bad.pprof", "alt.ir"}, 1,
			"irtool: profile: line 3: block b999 out of range: proc 0 has 7 blocks\n"},
		{[]string{"compile", "-scheme", "M4", "-edge", "huge.eprof", "alt.ir"}, 1,
			"irtool: profile: line 3: block b2000000000 out of range: proc 0 has 7 blocks\n"},
		{[]string{"compile", "-scheme", "P4", "-path", "negdepth.pprof", "alt.ir"}, 1,
			"irtool: profile: path depth -3 is negative\n"},
		{[]string{"check", "-path", "negmax.pprof", "alt.ir"}, 1,
			"irtool: profile: maxblocks -1 is negative\n"},
		{[]string{"paths", "-depth", "-3", "alt.ir"}, 2,
			"irtool: paths: -depth -3 is negative\n"},
		{[]string{"profile", "-depth", "-3", "-path", "out.pprof", "alt.ir"}, 2,
			"irtool: profile: -depth -3 is negative\n"},
	} {
		stdout, stderr, code := irtool(t, dir, tc.args...)
		if code != tc.code || stderr != tc.want || stdout != "" {
			t.Errorf("irtool %s: exit %d, stdout %q, stderr %q; want exit %d and stderr %q",
				strings.Join(tc.args, " "), code, stdout, stderr, tc.code, tc.want)
		}
	}
}

// TestStoreAdminNeedsExistingDir: the store administration commands
// inspect a store that exists. On a missing directory each exits 1 with
// a message and creates nothing, so verifying a mistyped path fails
// instead of passing over a fresh, empty store.
func TestStoreAdminNeedsExistingDir(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "nostore")
	for _, sub := range []string{"ls", "verify", "gc"} {
		stdout, stderr, code := irtool(t, dir, "store", sub, "-dir", missing)
		want := "irtool: store: stat " + missing + ": no such file or directory\n"
		if code != 1 || stdout != "" || stderr != want {
			t.Errorf("irtool store %s -dir <missing>: exit %d, stdout %q, stderr %q; want exit 1 and stderr %q",
				sub, code, stdout, stderr, want)
		}
		if _, err := os.Stat(missing); !os.IsNotExist(err) {
			t.Fatalf("irtool store %s created the missing directory: %v", sub, err)
		}
	}
}

// TestStoreAdminRefusesNonStoreDir: pointed at a directory that is not
// a store (no marker), each store command exits 1 and leaves the
// directory exactly as it was: no file read as an entry and deleted,
// no tmp/ created.
func TestStoreAdminRefusesNonStoreDir(t *testing.T) {
	dir := t.TempDir()
	readme := filepath.Join(dir, "docs", "readme")
	if err := os.MkdirAll(filepath.Dir(readme), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(readme, []byte("not an entry\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"ls", "verify", "gc"} {
		stdout, stderr, code := irtool(t, dir, "store", sub, "-dir", dir)
		if code != 1 || stdout != "" || !strings.Contains(stderr, "is not an artifact store") {
			t.Errorf("irtool store %s -dir <not a store>: exit %d, stdout %q, stderr %q; want exit 1 and a refusal",
				sub, code, stdout, stderr)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != "docs" {
			t.Fatalf("irtool store %s changed the directory: %v", sub, entries)
		}
		if data, err := os.ReadFile(readme); err != nil || string(data) != "not an entry\n" {
			t.Fatalf("irtool store %s: docs/readme now %q, err %v", sub, data, err)
		}
	}
}
