package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain dispatches child mode: the harness re-executes the test
// binary for every child it starts.
func TestMain(m *testing.M) {
	if isChild, code := childMain(); isChild {
		os.Exit(code)
	}
	// Under -race every child would otherwise sleep a second at exit,
	// and a full TestWorkloads starts over a hundred of them.
	os.Setenv("GORACE", strings.TrimSpace(os.Getenv("GORACE")+" atexit_sleep_ms=0"))
	os.Exit(m.Run())
}

// spec is the part of BENCHMARK.json the harness must agree with.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesHarness pins BENCHMARK.json to the harness's own
// workload and metric tables. BENCHMARK.json lists the workloads a
// per-change check runs: some of the harness's, in its order.
func TestSpecMatchesHarness(t *testing.T) {
	s := readSpec(t)
	i := 0
	for _, w := range s.Workloads {
		for i < len(workloads) && workloads[i].name != w.Name {
			i++
		}
		if i == len(workloads) {
			t.Fatalf("BENCHMARK.json workload %q is not a harness workload, or is out of order", w.Name)
		}
		if w.Why != workloads[i].why {
			t.Errorf("workload %s: BENCHMARK.json says %q, harness %q", w.Name, w.Why, workloads[i].why)
		}
	}
	if len(s.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, harness %d", len(s.EndToEnd), len(endToEnd))
	}
	for i, m := range s.EndToEnd {
		h := endToEnd[i]
		if m.Name != h.name || m.Unit != h.unit || m.Better != h.better || m.Bound != h.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, harness %s %s %s %g", i, m, h.name, h.unit, h.better, h.bound)
		}
	}
	if len(s.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, harness %d", len(s.PerLayer), len(perLayer))
	}
	for i, m := range s.PerLayer {
		h := perLayer[i]
		if m.Name != h.name || m.Unit != h.unit || m.Better != h.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, harness %s %s %s", i, m, h.name, h.unit, h.better)
		}
	}
}

// TestWorkloads runs every workload on two small benchmarks, one timed
// child each, and checks what a full run must show: every metric of
// BENCHMARK.json printed with its unit on every workload, identical
// results where inputs are shared, and no worse verdict when the report
// is compared with itself.
func TestWorkloads(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "report.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-bench", "alt,wc", "-runs", "1", "-work", dir, "-o", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}

	s := readSpec(t)
	blocks := strings.Split(stdout.String(), "\n\n")[1:]
	if len(blocks) != len(workloads) {
		t.Fatalf("printed %d workload blocks, want %d:\n%s", len(blocks), len(workloads), &stdout)
	}
	for i, b := range blocks {
		if !strings.HasPrefix(b, workloads[i].name+":") {
			t.Errorf("block %d starts %q, want workload %s", i, strings.SplitN(b, "\n", 2)[0], workloads[i].name)
		}
		var names, units []string
		for _, m := range s.EndToEnd {
			names, units = append(names, m.Name), append(units, m.Unit)
		}
		for _, m := range s.PerLayer {
			names, units = append(names, m.Name), append(units, m.Unit)
		}
		for j, name := range names {
			line := regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(name) + ` +\S+ ` + regexp.QuoteMeta(units[j]) + ` `)
			if !line.MatchString(b) {
				t.Errorf("%s: metric %s not printed with unit %s", workloads[i].name, name, units[j])
			}
		}
	}

	rep, err := readReport(out)
	if err != nil {
		t.Fatal(err)
	}
	want := rep.workload("suite").Digest
	for _, name := range []string{"suite", "suite-gated", "store-cold", "store-warm"} {
		w := rep.workload(name)
		if w.Digest == "" || w.Digest != want {
			t.Errorf("%s digest %q, suite's %q", name, w.Digest, want)
		}
		if w.Failed != 0 || w.Attempted == 0 {
			t.Errorf("%s: %d of %d measurements failed", name, w.Failed, w.Attempted)
		}
	}

	var cmp bytes.Buffer
	if code := run([]string{"-compare", out, out}, &cmp, &stderr); code != 0 {
		t.Fatalf("comparing a report with itself: exit %d\n%s", code, &cmp)
	}
	if strings.Contains(cmp.String(), verdictWorse) {
		t.Errorf("comparing a report with itself:\n%s", &cmp)
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	// Expected quartiles are Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{1, 2}, 1.5, 0.75, 2.25},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{5, 1, 4, 2}, 3, 1.25, 4.75},
		{[]float64{1, 2, 3, 4, 5}, 3, 1.5, 4.5},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 5.5, 2.75, 8.25},
	} {
		q1, q3 := quartiles(c.xs)
		if m := median(c.xs); m != c.med || q1 != c.q1 || q3 != c.q3 {
			t.Errorf("%v: median %g, quartiles %g %g; want %g, %g %g", c.xs, m, q1, q3, c.med, c.q1, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	wall := metric{name: "wall_s", better: "lower", bound: 0.10}
	exact := metric{name: "code_kb", better: "lower", bound: 0.02, exact: true}
	runs := func(xs ...float64) summary { return summarize("s", xs) }
	for _, c := range []struct {
		m        metric
		old, new summary
		want     string
	}{
		{wall, runs(10, 10.1, 9.9), runs(10.2, 10, 10.1), verdictUnchanged},
		{wall, runs(10, 10.1, 9.9), runs(11.5, 11.6, 11.4), verdictWorse},
		{wall, runs(10, 10.1, 9.9), runs(9, 9.1, 8.9), verdictBetter},
		{wall, runs(8, 10, 12), runs(9, 11.5, 13), verdictUnresolved},
		{wall, runs(10, 10.1, 10.2, 10.3), runs(12, 13, 14, 15), verdictWorse}, // new runs spread wide but all worse
		{exact, runs(100, 100), runs(100.5, 100.5), verdictWorse},
		{exact, runs(100, 100), runs(99, 99), verdictBetter},
	} {
		if got := judge(c.m, c.old, c.new); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.m.name, c.old.Values, c.new.Values, got, c.want)
		}
	}
}
