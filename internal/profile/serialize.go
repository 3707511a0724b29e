package profile

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"pathsched/internal/ir"
)

// Profile serialization: a line-oriented text format so training runs
// can be decoupled from compilation (profile on one invocation, form
// superblocks in another — the usual profile-guided build workflow).
//
// Edge profiles:
//
//	edgeprofile
//	proc <id> entries=<n>
//	block b<i>: <count>
//	edge b<i>->b<j>: <count>
//
// Path profiles serialize the distinct windows the profiler recorded
// (not the derived suffix trie, which is rebuilt on load):
//
//	pathprofile depth=<d> maxblocks=<m>
//	proc <id>
//	path <count>: b<i> b<j> ...
//
// The header must carry the complete normalized configuration: cache
// keys fingerprint the parsed config, and a field that doesn't survive
// the round trip silently conflates differently-gathered profiles.
//
// Both parsers take the program the profile describes and reject, with
// the offending line's number, any procedure or block id it does not
// have: a profile names blocks that formation indexes directly.

// WriteText serializes an edge profile.
func (e *EdgeProfile) WriteText() string {
	var sb strings.Builder
	sb.WriteString("edgeprofile\n")
	for pid, pe := range e.procs {
		fmt.Fprintf(&sb, "proc %d entries=%d\n", pid, pe.entries)
		for b, n := range pe.block {
			if n != 0 {
				fmt.Fprintf(&sb, "block b%d: %d\n", b, n)
			}
		}
		for f := range pe.succID {
			tos := make([]ir.BlockID, len(pe.succID[f]))
			copy(tos, pe.succID[f])
			sort.Slice(tos, func(i, j int) bool { return tos[i] < tos[j] })
			for _, t := range tos {
				if n := e.EdgeFreq(ir.ProcID(pid), ir.BlockID(f), t); n != 0 {
					fmt.Fprintf(&sb, "edge b%d->b%d: %d\n", f, t, n)
				}
			}
		}
	}
	return sb.String()
}

// blockErr reports a block id outside its procedure's blocks, or nil.
func blockErr(line int, b ir.BlockID, proc, nblocks int) error {
	if b < 0 || int(b) >= nblocks {
		return fmt.Errorf("profile: line %d: block b%d out of range: proc %d has %d blocks", line, b, proc, nblocks)
	}
	return nil
}

// ParseEdgeProfile reads the text form of a profile of prog back.
func ParseEdgeProfile(prog *ir.Program, text string) (*EdgeProfile, error) {
	ep := newEdgeProfile(prog)
	var cur *procEdges
	curProc := -1
	lines := strings.Split(text, "\n")
	if len(lines) == 0 || strings.TrimSpace(lines[0]) != "edgeprofile" {
		return nil, fmt.Errorf("profile: missing edgeprofile header")
	}
	for no, raw := range lines[1:] {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		switch {
		case strings.HasPrefix(line, "proc "):
			fields := strings.Fields(line)
			if len(fields) != 3 || !strings.HasPrefix(fields[2], "entries=") {
				return nil, fmt.Errorf("profile: line %d: malformed proc line", no+2)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil || id < 0 || id >= len(ep.procs) {
				return nil, fmt.Errorf("profile: line %d: bad proc id", no+2)
			}
			n, err := strconv.ParseInt(fields[2][len("entries="):], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("profile: line %d: bad entries", no+2)
			}
			cur, curProc = ep.procs[id], id
			cur.entries = n
		case strings.HasPrefix(line, "block "):
			if cur == nil {
				return nil, fmt.Errorf("profile: line %d: block before proc", no+2)
			}
			var b ir.BlockID
			var n int64
			if _, err := fmt.Sscanf(line, "block b%d: %d", &b, &n); err != nil {
				return nil, fmt.Errorf("profile: line %d: %v", no+2, err)
			}
			if err := blockErr(no+2, b, curProc, len(cur.block)); err != nil {
				return nil, err
			}
			cur.block[b] += n
		case strings.HasPrefix(line, "edge "):
			if cur == nil {
				return nil, fmt.Errorf("profile: line %d: edge before proc", no+2)
			}
			var f, t ir.BlockID
			var n int64
			if _, err := fmt.Sscanf(line, "edge b%d->b%d: %d", &f, &t, &n); err != nil {
				return nil, fmt.Errorf("profile: line %d: %v", no+2, err)
			}
			for _, b := range []ir.BlockID{f, t} {
				if err := blockErr(no+2, b, curProc, len(cur.block)); err != nil {
					return nil, err
				}
			}
			cur.addEdge(f, t, n)
		default:
			return nil, fmt.Errorf("profile: line %d: unrecognized %q", no+2, line)
		}
	}
	return ep, nil
}

// WriteText serializes the profiler's recorded windows.
func (pp *PathProfiler) WriteText() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "pathprofile depth=%d maxblocks=%d\n", pp.cfg.Depth, pp.cfg.MaxBlocks)
	for pid, a := range pp.procs {
		if len(a.nodes) == 0 {
			continue
		}
		fmt.Fprintf(&sb, "proc %d\n", pid)
		for _, kn := range sortedNodes(a) {
			nd := kn.nd
			if nd.count == 0 {
				continue
			}
			fmt.Fprintf(&sb, "path %d:", nd.count)
			for _, b := range nd.seq {
				fmt.Fprintf(&sb, " b%d", b)
			}
			sb.WriteString("\n")
		}
	}
	return sb.String()
}

// ParsePathProfile reads a serialized path profile back into a
// queryable PathProfile. prog supplies the branch classification
// TrimToDepth depends on.
func ParsePathProfile(prog *ir.Program, text string) (*PathProfile, error) {
	pp, err := parsePathProfiler(prog, text)
	if err != nil {
		return nil, err
	}
	return pp.Profile(), nil
}

// parsePathProfiler reads the text form back into a live profiler, so
// it can be re-serialized: WriteText∘parsePathProfiler∘WriteText is
// the identity, which keeps cache keys over serialized profiles
// stable.
func parsePathProfiler(prog *ir.Program, text string) (*PathProfiler, error) {
	lines := strings.Split(text, "\n")
	if len(lines) == 0 || !strings.HasPrefix(strings.TrimSpace(lines[0]), "pathprofile") {
		return nil, fmt.Errorf("profile: missing pathprofile header")
	}
	cfg := PathConfig{}
	for _, f := range strings.Fields(lines[0])[1:] {
		switch {
		case strings.HasPrefix(f, "depth="):
			v, err := strconv.Atoi(f[len("depth="):])
			if err != nil {
				return nil, fmt.Errorf("profile: bad depth %q", f)
			}
			cfg.Depth = v
		case strings.HasPrefix(f, "maxblocks="):
			v, err := strconv.Atoi(f[len("maxblocks="):])
			if err != nil {
				return nil, fmt.Errorf("profile: bad maxblocks %q", f)
			}
			cfg.MaxBlocks = v
		default:
			return nil, fmt.Errorf("profile: unknown header field %q", f)
		}
	}
	if err := checkBounds(cfg.Depth, cfg.MaxBlocks); err != nil {
		return nil, err
	}
	pp := NewPathProfiler(prog, cfg)
	curProc := -1
	for no, raw := range lines[1:] {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		switch {
		case strings.HasPrefix(line, "proc "):
			id, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, "proc ")))
			if err != nil || id < 0 || id >= len(pp.procs) {
				return nil, fmt.Errorf("profile: line %d: bad proc id", no+2)
			}
			curProc = id
		case strings.HasPrefix(line, "path "):
			if curProc < 0 {
				return nil, fmt.Errorf("profile: line %d: path before proc", no+2)
			}
			rest := strings.TrimPrefix(line, "path ")
			colon := strings.IndexByte(rest, ':')
			if colon < 0 {
				return nil, fmt.Errorf("profile: line %d: malformed path", no+2)
			}
			count, err := strconv.ParseInt(strings.TrimSpace(rest[:colon]), 10, 64)
			if err != nil || count < 0 {
				return nil, fmt.Errorf("profile: line %d: bad count", no+2)
			}
			nblocks := len(pp.condBr[curProc])
			var seq []ir.BlockID
			for _, f := range strings.Fields(rest[colon+1:]) {
				if !strings.HasPrefix(f, "b") {
					return nil, fmt.Errorf("profile: line %d: bad block %q", no+2, f)
				}
				v, err := strconv.ParseInt(f[1:], 10, 32)
				if err != nil {
					return nil, fmt.Errorf("profile: line %d: bad block %q", no+2, f)
				}
				if err := blockErr(no+2, ir.BlockID(v), curProc, nblocks); err != nil {
					return nil, err
				}
				seq = append(seq, ir.BlockID(v))
			}
			if len(seq) == 0 {
				return nil, fmt.Errorf("profile: line %d: empty path", no+2)
			}
			if count == 0 {
				continue // records nothing, so WriteText would drop it
			}
			nd := pp.procs[curProc].internSeq(seq)
			if nd.count+count < nd.count {
				return nil, fmt.Errorf("profile: line %d: count overflows", no+2)
			}
			nd.count += count
		default:
			return nil, fmt.Errorf("profile: line %d: unrecognized %q", no+2, line)
		}
	}
	return pp, nil
}
