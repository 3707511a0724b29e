package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"

	"pathsched/internal/bench"
	"pathsched/internal/pipeline"
)

// Spawn driver: -spawn N re-execs this binary N times, once per shard,
// all sharing one artifact-store directory, and merges the shards'
// results back into suite order. Each distinct laid-out compile is
// built by exactly one worker in the common case (the store's claim
// protocol dedups the rest), so the merged run is
// byte-identical to — and on a multi-core machine faster than — the
// serial runner.

// shardEnvelope is what a -shardout child writes: its shard's results
// in shard order, plus its cache counters for the per-shard report.
type shardEnvelope struct {
	Results   []*pipeline.Result
	Stats     pipeline.CacheStats
	HaveStats bool
}

func writeShardEnvelope(path string, env shardEnvelope) error {
	data, err := json.Marshal(env)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spawnWorkers forks n children over storeDir (created fresh under a
// temp directory when empty — the workers still share artifacts, they
// just don't persist them) and merges their results into suite order.
func spawnWorkers(n int, storeDir string, names []string) ([]*pipeline.Result, []pipeline.CacheStats, error) {
	if names == nil {
		names = bench.Names()
	}
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	if storeDir == "" {
		tmp, err := os.MkdirTemp("", "pathsched-store-")
		if err != nil {
			return nil, nil, err
		}
		defer os.RemoveAll(tmp)
		storeDir = tmp
	}
	outDir, err := os.MkdirTemp("", "pathsched-shards-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(outDir)

	// Children inherit every explicitly-set flag except the driver's
	// own, so -depth, -profiler, -exact, ... behave identically whether
	// the suite runs in one process or n.
	var base []string
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "spawn", "shards", "shardout", "store", "storegc", "json", "cachestats", "only":
			return
		}
		base = append(base, "-"+f.Name+"="+f.Value.String())
	})

	envs := make([]shardEnvelope, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out := filepath.Join(outDir, fmt.Sprintf("shard%d.json", i))
			args := append(append([]string{}, base...),
				"-store="+storeDir,
				fmt.Sprintf("-shards=%d/%d", i, n),
				"-shardout="+out,
			)
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				errs[i] = fmt.Errorf("shard %d/%d: %w", i, n, err)
				return
			}
			data, err := os.ReadFile(out)
			if err != nil {
				errs[i] = fmt.Errorf("shard %d/%d: %w", i, n, err)
				return
			}
			if err := json.Unmarshal(data, &envs[i]); err != nil {
				errs[i] = fmt.Errorf("shard %d/%d: %w", i, n, err)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}

	// Invert ShardNames' round-robin split back into suite order.
	merged := make([]*pipeline.Result, len(names))
	for i := range merged {
		shard := envs[i%n].Results
		j := i / n
		if j >= len(shard) {
			return nil, nil, fmt.Errorf("shard %d/%d returned %d results, need %d", i%n, n, len(shard), j+1)
		}
		merged[i] = shard[j]
		if merged[i] == nil || merged[i].Name != names[i] {
			return nil, nil, fmt.Errorf("shard %d/%d: result %d out of order", i%n, n, j)
		}
	}
	stats := make([]pipeline.CacheStats, n)
	for i, e := range envs {
		stats[i] = e.Stats
	}
	return merged, stats, nil
}
