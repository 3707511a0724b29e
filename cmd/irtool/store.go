package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"pathsched/internal/pipeline"
	"pathsched/internal/store"
)

// storeCmd administers a persistent artifact store directory: list its
// entries, verify every entry end to end (framing sha plus the
// kind-specific semantic check — decode, re-fingerprint, key binding),
// or prune it to a byte budget, oldest access first. The directory must
// already be a store (store.OpenExisting): a mistyped path is not
// reported as an empty, clean store, and files in a directory that is
// not a store are never read as entries or deleted.
func storeCmd(args []string) {
	if len(args) < 1 {
		storeUsage()
	}
	sub, args := args[0], args[1:]
	fs := flag.NewFlagSet("store "+sub, flag.ExitOnError)
	dir := fs.String("dir", "", "artifact store directory (required)")
	maxBytes := fs.Int64("maxbytes", 0, "gc: entry-byte budget to prune down to (0 = sweep debris only)")
	_ = fs.Parse(args)
	if *dir == "" {
		fatal(fmt.Errorf("store %s: -dir is required", sub))
	}
	st, err := store.OpenExisting(*dir, store.Options{})
	if err != nil {
		fatal(err)
	}
	switch sub {
	case "ls":
		storeLs(st)
	case "verify":
		storeVerify(st)
	case "gc":
		storeGC(st, *maxBytes)
	default:
		storeUsage()
	}
}

func storeUsage() {
	fmt.Fprintln(os.Stderr, "usage: irtool store {ls|verify|gc} -dir DIR [-maxbytes N]")
	os.Exit(2)
}

func storeLs(st *store.Store) {
	entries, err := st.List()
	if err != nil {
		fatal(err)
	}
	var total int64
	now := time.Now()
	for _, e := range entries {
		fmt.Printf("%-8s %-64s %8d  %s\n", e.Kind, e.Key, e.Size, fmtAge(now.Sub(e.ModTime)))
		total += e.Size
	}
	fmt.Printf("%d entries, %d bytes\n", len(entries), total)
}

// fmtAge renders an access age at one coarse unit, enough to judge GC
// candidates by eye.
func fmtAge(d time.Duration) string {
	switch {
	case d < time.Minute:
		return fmt.Sprintf("%ds", int(d.Seconds()))
	case d < time.Hour:
		return fmt.Sprintf("%dm", int(d.Minutes()))
	case d < 24*time.Hour:
		return fmt.Sprintf("%dh", int(d.Hours()))
	default:
		return fmt.Sprintf("%dd", int(d.Hours()/24))
	}
}

func storeVerify(st *store.Store) {
	entries, err := st.List()
	if err != nil {
		fatal(err)
	}
	bad := 0
	for _, e := range entries {
		payload, ok := st.Get(e.Kind, e.Key)
		if !ok {
			// Get already deleted it: framing sha or magic failed.
			fmt.Printf("CORRUPT %s/%s: bad framing (removed)\n", e.Kind, e.Key)
			bad++
			continue
		}
		if err := pipeline.VerifyEntry(e.Kind, e.Key, payload); err != nil {
			fmt.Printf("CORRUPT %s/%s: %v\n", e.Kind, e.Key, err)
			bad++
		}
	}
	fmt.Printf("%d entries verified, %d corrupt\n", len(entries), bad)
	if bad > 0 {
		os.Exit(1)
	}
}

func storeGC(st *store.Store, maxBytes int64) {
	gs, err := st.GC(maxBytes)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("removed %d entries (%d bytes), %d temp files; %d entries (%d bytes) remain\n",
		gs.Removed, gs.RemovedBytes, gs.TmpRemoved, gs.Entries, gs.Bytes)
}
