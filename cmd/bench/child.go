package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pathsched/internal/bench"
	"pathsched/internal/ir"
	"pathsched/internal/pipeline"
	"pathsched/internal/stats"
	"pathsched/internal/store"
)

// childEnv carries a child's job. The harness starts every child by
// re-executing its own binary with it set; under go test that binary is
// the test binary, whose TestMain dispatches the same way main does.
const childEnv = "PATHSCHED_BENCH_CHILD"

// timedProcs is the GOMAXPROCS, Options.Parallelism and benchmark pool
// size of every timed child.
const timedProcs = 2

// Child modes.
const (
	modeProbe = "probe" // become ready, then exit: one set-up sample
	modeTimed = "timed" // one untraced end-to-end run
	modeTrace = "trace" // the serial traced run
)

// job is what the harness asks of one child.
type job struct {
	Mode     string   `json:"mode"`
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Bench    []string `json:"bench,omitempty"`
	Store    string   `json:"store,omitempty"` // artifact store directory
	Out      string   `json:"out,omitempty"`   // where the child writes its output
}

// timedOutput is a timed child's report.
type timedOutput struct {
	WallS   float64               `json:"wall_s"`
	Digest  string                `json:"digest"` // sha256 of stats.JSON(Results)
	Results []*pipeline.Result    `json:"results"`
	Errors  []string              `json:"errors"` // per benchmark; "" when it ran
	Compile pipeline.CompileStats `json:"compile"`
	Cache   pipeline.CacheStats   `json:"cache"`
}

// childMain runs the child job in the environment, if there is one,
// and reports whether this process is a child and its exit code.
func childMain() (isChild bool, code int) {
	spec, ok := os.LookupEnv(childEnv)
	if !ok {
		return false, 0
	}
	if err := runChild(spec); err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return true, 1
	}
	return true, 0
}

func runChild(spec string) error {
	var j job
	if err := json.Unmarshal([]byte(spec), &j); err != nil {
		return fmt.Errorf("job: %w", err)
	}
	w, err := workloadByName(j.Workload)
	if err != nil {
		return err
	}
	bs, err := w.benchmarks(j.Bench, j.Seed)
	if err != nil {
		return err
	}
	inputs, err := prepare(bs)
	if err != nil {
		return err
	}
	// The harness times spawn until the ready line as set-up.
	var out any
	switch j.Mode {
	case modeProbe, modeTimed:
		opts := w.options(timedProcs)
		if j.Store != "" {
			st, err := store.Open(j.Store, store.Options{})
			if err != nil {
				return err
			}
			opts.ArtifactStore = st
		}
		r := pipeline.NewRunner(opts)
		fmt.Println("ready", inputs)
		if j.Mode == modeProbe {
			return nil
		}
		out, err = runTimed(r, bs)
	case modeTrace:
		fmt.Println("ready", inputs)
		out, err = runTraced(w, bs)
	default:
		return fmt.Errorf("unknown mode %q", j.Mode)
	}
	if err != nil {
		return err
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(j.Out, data, 0o644)
}

// prepare builds and verifies every training and testing program of bs,
// serially, and returns a digest of their fingerprints. It is the
// child's set-up: the harness checks that every child of a workload
// built the same inputs. The pipeline builds its own copies.
func prepare(bs []*bench.Benchmark) (string, error) {
	h := sha256.New()
	for _, b := range bs {
		for _, in := range []bench.Input{b.Train, b.Test} {
			p := b.Build(in)
			if err := ir.Verify(p); err != nil {
				return "", fmt.Errorf("%s %s input: %w", b.Name, in.Label, err)
			}
			fp := ir.Fingerprint(p)
			h.Write(fp[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// runTimed measures bs under every scheme from a pool of timedProcs
// goroutines sharing one runner: a closed loop, each goroutine starting
// its next benchmark when the previous one returns. A benchmark that
// fails is reported, not fatal, so the harness can count it.
func runTimed(r *pipeline.Runner, bs []*bench.Benchmark) (*timedOutput, error) {
	out := &timedOutput{
		Results: make([]*pipeline.Result, len(bs)),
		Errors:  make([]string, len(bs)),
	}
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(timedProcs)
	for g := 0; g < timedProcs; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(bs) {
					return
				}
				res, err := r.RunBenchmark(bs[i], pipeline.AllSchemes())
				if err != nil {
					out.Errors[i] = err.Error()
					continue
				}
				out.Results[i] = res
			}
		}()
	}
	wg.Wait()
	out.WallS = time.Since(start).Seconds()
	js, err := stats.JSON(out.Results)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256([]byte(js))
	out.Digest = hex.EncodeToString(sum[:])
	out.Compile = r.CompileStats()
	out.Cache, _ = r.CacheStats()
	return out, nil
}

// childRun is what the harness observes of one child from outside.
type childRun struct {
	inputs   string  // the digest of the child's input programs
	readyS   float64 // spawn until the child printed its ready line
	elapsedS float64 // spawn until exit
	cpuS     float64 // user+sys CPU
	rssMB    float64 // peak resident set
}

// spawn runs j in a fresh child process with the given GOMAXPROCS and
// waits for it to exit. When j has an Out file, spawn decodes it into
// out.
func spawn(j job, procs int, out any) (childRun, error) {
	self, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	spec, err := json.Marshal(j)
	if err != nil {
		return childRun{}, err
	}
	cmd := exec.Command(self)
	// Later entries win, so these override any inherited values.
	cmd.Env = append(os.Environ(), childEnv+"="+string(spec), fmt.Sprintf("GOMAXPROCS=%d", procs))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return childRun{}, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return childRun{}, err
	}
	line, rerr := bufio.NewReader(stdout).ReadString('\n')
	var run childRun
	run.readyS = time.Since(t0).Seconds()
	inputs, ready := strings.CutPrefix(strings.TrimSuffix(line, "\n"), "ready ")
	run.inputs = inputs
	io.Copy(io.Discard, stdout) // nothing else is expected; drain so Wait can return
	werr := cmd.Wait()
	run.elapsedS = time.Since(t0).Seconds()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		run.cpuS = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
		run.rssMB = float64(ru.Maxrss) / 1024 // Linux reports kilobytes
	}
	switch {
	case werr != nil:
		return run, fmt.Errorf("%s child of %s: %w", j.Mode, j.Workload, werr)
	case rerr != nil || !ready:
		return run, fmt.Errorf("%s child of %s never became ready", j.Mode, j.Workload)
	}
	if j.Out == "" {
		return run, nil
	}
	data, err := os.ReadFile(j.Out)
	if err != nil {
		return run, err
	}
	if err := json.Unmarshal(data, out); err != nil {
		return run, fmt.Errorf("%s child output: %w", j.Mode, err)
	}
	return run, nil
}
