package main

import (
	"fmt"
	"time"

	"pathsched/internal/pipeline"
	"pathsched/internal/store"
)

// timeStore times the store layer from outside over the store in dir:
// for every entry a Get plus pipeline.VerifyEntry, and a Put of the
// same payload into a fresh store at scratch. It adds the store.*
// per-layer metrics to layer.
func timeStore(dir, scratch string, layer map[string]float64) error {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	fresh, err := store.Open(scratch, store.Options{})
	if err != nil {
		return err
	}
	entries, err := st.List()
	if err != nil {
		return err
	}
	var bytes int64
	var get, verify, put time.Duration
	for _, e := range entries {
		t0 := time.Now()
		payload, ok := st.Get(e.Kind, e.Key)
		t1 := time.Now()
		if !ok {
			return fmt.Errorf("store entry %s/%s unreadable", e.Kind, e.Key)
		}
		if err := pipeline.VerifyEntry(e.Kind, e.Key, payload); err != nil {
			return fmt.Errorf("store entry %s/%s: %w", e.Kind, e.Key, err)
		}
		t2 := time.Now()
		if err := fresh.Put(e.Kind, e.Key, payload); err != nil {
			return err
		}
		get += t1.Sub(t0)
		verify += t2.Sub(t1)
		put += time.Since(t2)
		bytes += e.Size
	}
	layer["store.entries"] = float64(len(entries))
	layer["store.bytes"] = float64(bytes)
	layer["store.get_s"] = get.Seconds()
	layer["store.verify_s"] = verify.Seconds()
	layer["store.put_s"] = put.Seconds()
	return nil
}
