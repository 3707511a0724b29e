package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Entry describes one stored artifact, as listed by List.
type Entry struct {
	Kind    string
	Key     string
	Size    int64     // file size on disk (header + payload)
	ModTime time.Time // last access (reads refresh it)
}

// List returns every entry in the store, sorted by kind then key so
// output is deterministic regardless of directory iteration order.
func (s *Store) List() ([]Entry, error) {
	kinds, err := os.ReadDir(s.root)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var out []Entry
	for _, kd := range kinds {
		if !kd.IsDir() || kd.Name() == "tmp" {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.root, kd.Name()))
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		for _, f := range files {
			fi, err := f.Info()
			if err != nil {
				continue // deleted concurrently
			}
			out = append(out, Entry{
				Kind:    kd.Name(),
				Key:     f.Name(),
				Size:    fi.Size(),
				ModTime: fi.ModTime(),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Key < out[j].Key
	})
	return out, nil
}

// GCStats reports what GC found and removed.
type GCStats struct {
	Entries      int   // entries remaining after the sweep
	Bytes        int64 // bytes remaining after the sweep
	Removed      int   // entries pruned to meet the budget
	RemovedBytes int64
	TmpRemoved   int // abandoned temp files cleaned
}

// GC prunes the store to at most maxBytes of entries, removing
// oldest-access first (reads refresh timestamps, so this is LRU-ish).
// maxBytes <= 0 keeps every entry. It also sweeps temp files older than
// StaleAfter — the debris a killed process leaves behind, which is
// always safe because temp files are private until renamed.
func (s *Store) GC(maxBytes int64) (GCStats, error) {
	var st GCStats
	cutoff := time.Now().Add(-s.opts.StaleAfter)
	files, err := os.ReadDir(filepath.Join(s.root, "tmp"))
	if err != nil && !os.IsNotExist(err) {
		return st, fmt.Errorf("store: %w", err)
	}
	for _, f := range files {
		fi, err := f.Info()
		if err != nil || fi.ModTime().After(cutoff) {
			continue
		}
		if os.Remove(filepath.Join(s.root, "tmp", f.Name())) == nil {
			st.TmpRemoved++
		}
	}
	entries, err := s.List()
	if err != nil {
		return st, err
	}
	var total int64
	for _, e := range entries {
		total += e.Size
	}
	if maxBytes > 0 && total > maxBytes {
		byAge := append([]Entry(nil), entries...)
		sort.Slice(byAge, func(i, j int) bool {
			if !byAge[i].ModTime.Equal(byAge[j].ModTime) {
				return byAge[i].ModTime.Before(byAge[j].ModTime)
			}
			if byAge[i].Kind != byAge[j].Kind {
				return byAge[i].Kind < byAge[j].Kind
			}
			return byAge[i].Key < byAge[j].Key
		})
		for _, e := range byAge {
			if total <= maxBytes {
				break
			}
			if err := s.Delete(e.Kind, e.Key); err != nil {
				return st, err
			}
			total -= e.Size
			st.Removed++
			st.RemovedBytes += e.Size
		}
	}
	st.Entries = len(entries) - st.Removed
	st.Bytes = total
	return st, nil
}
