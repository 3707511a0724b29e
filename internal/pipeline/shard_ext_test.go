// Multi-process differential test for sharded suite execution: the
// suite split across 1, 2, and 4 spawned worker processes sharing one
// artifact-store directory must merge to byte-identical reports
// against the serial in-memory runner, and the shards together must
// build each distinct artifact exactly once. The workers are real
// processes — this test binary re-execs itself (TestMain intercepts
// the child mode before the test framework starts), so the claim
// protocol runs across genuine process boundaries, under -race when
// the parent is.
package pipeline_test

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pathsched/internal/machine"
	"pathsched/internal/pipeline"
	"pathsched/internal/stats"
	"pathsched/internal/store"
)

const (
	shardChildEnv = "PATHSCHED_SHARD_CHILD" // "i/n" selects child mode
	shardNamesEnv = "PATHSCHED_SHARD_NAMES" // comma-separated suite list
	shardStoreEnv = "PATHSCHED_SHARD_STORE" // shared store directory
	shardOutEnv   = "PATHSCHED_SHARD_OUT"   // result envelope path
)

// shardEnvelope is what a worker process reports back: its shard's
// results in shard order, plus its cache counters.
type shardEnvelope struct {
	Results []*pipeline.Result
	Stats   pipeline.CacheStats
}

// TestMain turns the test binary into its own worker pool: when the
// child env var is set, run one shard and exit instead of running
// tests. testing.Testing() is true in the child too, so CheckAuto and
// ValidateAuto resolve exactly as in the parent's serial baseline and
// the two agree on compile keys.
func TestMain(m *testing.M) {
	if spec := os.Getenv(shardChildEnv); spec != "" {
		if err := runShardChild(spec); err != nil {
			fmt.Fprintln(os.Stderr, "shard child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runShardChild(spec string) error {
	var index, count int
	if _, err := fmt.Sscanf(spec, "%d/%d", &index, &count); err != nil {
		return fmt.Errorf("bad shard spec %q: %w", spec, err)
	}
	names, err := pipeline.ShardNames(strings.Split(os.Getenv(shardNamesEnv), ","), index, count)
	if err != nil {
		return err
	}
	st, err := store.Open(os.Getenv(shardStoreEnv), store.Options{})
	if err != nil {
		return err
	}
	cache := pipeline.NewDiskCache(st)
	c := machine.DefaultICache()
	r := pipeline.NewRunner(pipeline.Options{Cache: &c, Parallelism: 1, ProfileCache: cache})
	res, err := r.RunSuite(names, pipeline.AllSchemes())
	if err != nil {
		return err
	}
	data, err := json.Marshal(shardEnvelope{Results: res, Stats: cache.Stats()})
	if err != nil {
		return err
	}
	return os.WriteFile(os.Getenv(shardOutEnv), data, 0o644)
}

// shardTestNames spans enough benchmarks that even 4 shards are all
// non-empty, while staying in the suite's cheap microbenchmark tier.
var shardTestNames = []string{"alt", "wc", "ph", "corr", "com"}

// spawnShards runs count worker processes concurrently over one store
// directory and returns their envelopes, indexed by shard.
func spawnShards(t *testing.T, dir string, count int) []shardEnvelope {
	t.Helper()
	outs := make([]shardEnvelope, count)
	var wg sync.WaitGroup
	for i := 0; i < count; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outFile := filepath.Join(t.TempDir(), "out.json")
			cmd := exec.Command(os.Args[0])
			cmd.Env = append(os.Environ(),
				fmt.Sprintf("%s=%d/%d", shardChildEnv, i, count),
				shardNamesEnv+"="+strings.Join(shardTestNames, ","),
				shardStoreEnv+"="+dir,
				shardOutEnv+"="+outFile,
			)
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Errorf("shard %d/%d: %v\n%s", i, count, err, out)
				return
			}
			data, err := os.ReadFile(outFile)
			if err != nil {
				t.Errorf("shard %d/%d: %v", i, count, err)
				return
			}
			if err := json.Unmarshal(data, &outs[i]); err != nil {
				t.Errorf("shard %d/%d: %v", i, count, err)
			}
		}(i)
	}
	wg.Wait()
	return outs
}

// mergeShards interleaves per-shard results back into suite order,
// inverting ShardNames' round-robin split.
func mergeShards(t *testing.T, outs []shardEnvelope, total int) []*pipeline.Result {
	t.Helper()
	merged := make([]*pipeline.Result, total)
	for i := range merged {
		shard := outs[i%len(outs)]
		if j := i / len(outs); j < len(shard.Results) {
			merged[i] = shard.Results[j]
		}
	}
	for i, r := range merged {
		if r == nil {
			t.Fatalf("merge hole at suite position %d", i)
		}
		if r.Name != shardTestNames[i] {
			t.Fatalf("merge order: position %d is %q, want %q", i, r.Name, shardTestNames[i])
		}
	}
	return merged
}

func TestSpawnedShardsMatchSerialByteForByte(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	// Serial in-memory baseline, as the unsharded runner produces it.
	serialCache := pipeline.NewCache()
	c := machine.DefaultICache()
	r := pipeline.NewRunner(pipeline.Options{Cache: &c, Parallelism: 1, ProfileCache: serialCache})
	serialRes, err := r.RunSuite(shardTestNames, pipeline.AllSchemes())
	if err != nil {
		t.Fatal(err)
	}
	serialJSON, err := stats.JSON(serialRes)
	if err != nil {
		t.Fatal(err)
	}
	serialBuilds := serialCache.Stats().Compile.Builds

	for _, count := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", count), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "store")
			outs := spawnShards(t, dir, count)
			if t.Failed() {
				t.FailNow()
			}
			merged := mergeShards(t, outs, len(shardTestNames))

			// Byte identity of the full merged report against serial.
			mergedJSON, err := stats.JSON(merged)
			if err != nil {
				t.Fatal(err)
			}
			if mergedJSON != serialJSON {
				t.Errorf("merged %d-shard JSON diverges from serial runner", count)
			}
			if got, want := renderAll(t, merged), renderAll(t, serialRes); got != want {
				t.Errorf("merged %d-shard report diverges from serial runner:\n--- serial ---\n%s\n--- merged ---\n%s", count, want, got)
			}

			// Exactly-once building across all worker processes: the
			// claim protocol dedups concurrent shards, so total builds
			// equal the serial runner's distinct-key builds.
			var builds int64
			for _, o := range outs {
				builds += o.Stats.Compile.Builds
			}
			if builds != serialBuilds {
				t.Errorf("%d shards built %d compiles, serial runner built %d (want exactly-once)", count, builds, serialBuilds)
			}

			// Cross-process sharing: a second spawn over the now-warm
			// store must build nothing — every artifact comes off disk
			// — and still merge to the same bytes.
			warm := spawnShards(t, dir, count)
			if t.Failed() {
				t.FailNow()
			}
			warmJSON, err := stats.JSON(mergeShards(t, warm, len(shardTestNames)))
			if err != nil {
				t.Fatal(err)
			}
			if warmJSON != serialJSON {
				t.Errorf("disk-warm %d-shard JSON diverges from serial runner", count)
			}
			var warmBuilds, warmDiskHits int64
			for _, o := range warm {
				warmBuilds += o.Stats.Compile.Builds
				warmDiskHits += o.Stats.Compile.DiskHits
			}
			if warmBuilds != 0 {
				t.Errorf("disk-warm %d-shard spawn rebuilt %d artifacts", count, warmBuilds)
			}
			if warmDiskHits != serialBuilds {
				t.Errorf("disk-warm %d-shard spawn reported %d disk hits, want %d (one per entry)", count, warmDiskHits, serialBuilds)
			}
		})
	}
}
