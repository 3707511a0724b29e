// Package determinism flags map-range iteration in packages whose
// output must be byte-reproducible.
//
// The pipeline's guarantees — parallel runs identical to serial runs,
// content-addressed cache hits identical to cold compiles, golden
// tests pinning exact output — all rest on every compile stage being
// deterministic. Go map iteration order is deliberately randomized, so
// a `for range` over a map in a deterministic package is a latent
// nondeterminism bug: it may sit harmless for months (order-insensitive
// accumulation) until someone threads the iteration order into an
// output.
//
// The linter type-checks the target packages (stdlib go/parser +
// go/types; module-internal imports are resolved from source, stdlib
// imports from export data) and reports every range statement whose
// operand is a map, with two exemptions:
//
//   - the loop body only collects keys or values into a slice
//     (`for k := range m { keys = append(keys, k) }`), the standard
//     prelude to sorting — intrinsically order-insensitive;
//   - the statement is annotated with a `//lint:ordered` comment on
//     the same line or the line above, recording that a human judged
//     the iteration order-insensitive (e.g. accumulation into
//     commutative sums, or a destination that is itself a map).
package determinism

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Packages is the module-root-relative set of packages whose output
// must be byte-deterministic: every package a compile, a profile or a
// measurement flows through — scheduling, register allocation (which
// picks the physical registers in every compiled fingerprint),
// formation, pipeline orchestration, profiling, the interpreter whose
// counters become the profiles, and layout, which assigns the
// addresses the I-cache model charges. Packages that only render
// reports (stats, cmd) may iterate maps as they please: their output
// is sorted at the rendering layer and pinned by golden tests.
// cmd/determinismlint lints this set by default, and
// TestRepoDeterministicPackagesClean keeps it clean.
var Packages = []string{
	"internal/sched",
	"internal/regalloc",
	"internal/core",
	"internal/pipeline",
	"internal/profile",
	"internal/interp",
	"internal/layout",
}

// Finding is one unordered map iteration in a deterministic package.
type Finding struct {
	Pos token.Position
	Msg string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s", f.Pos, f.Msg)
}

// Check lints the packages at the given module-root-relative
// directories. modRoot is the module's filesystem root, modPath its
// module path (so module-internal imports resolve from source).
// Findings come back sorted by position; an error means the lint
// itself could not run (parse or type-check failure), never a finding.
func Check(modRoot, modPath string, pkgDirs []string) ([]Finding, error) {
	c := &checker{
		fset:    token.NewFileSet(),
		modRoot: modRoot,
		modPath: modPath,
		pkgs:    map[string]*loaded{},
	}
	c.std = importer.ForCompiler(c.fset, "gc", nil)

	var findings []Finding
	for _, rel := range pkgDirs {
		ipath := modPath
		if rel != "." && rel != "" {
			ipath = modPath + "/" + filepath.ToSlash(rel)
		}
		l, err := c.load(ipath)
		if err != nil {
			return nil, fmt.Errorf("determinism: %s: %w", rel, err)
		}
		for _, f := range l.files {
			findings = append(findings, c.lintFile(f, l.info)...)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	return findings, nil
}

type checker struct {
	fset    *token.FileSet
	modRoot string
	modPath string
	std     types.Importer
	pkgs    map[string]*loaded

	// loading guards against import cycles (which go vet would reject
	// anyway, but a clear error beats a stack overflow).
	loading []string
}

// loaded memoizes one type-checked module-internal package. A package
// must be checked exactly once: re-checking would mint a second
// *types.Package identity, and types imported through different paths
// would stop comparing equal.
type loaded struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// Import resolves an import path for go/types: module-internal
// packages type-check from source, everything else comes from the
// stdlib importer.
func (c *checker) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == c.modPath || strings.HasPrefix(path, c.modPath+"/") {
		l, err := c.load(path)
		if err != nil {
			return nil, err
		}
		return l.pkg, nil
	}
	return c.std.Import(path)
}

// load parses and type-checks the module-internal package with import
// path ipath, memoized so every import path reaches one identity.
func (c *checker) load(ipath string) (*loaded, error) {
	if l, ok := c.pkgs[ipath]; ok {
		return l, nil
	}
	for _, p := range c.loading {
		if p == ipath {
			return nil, fmt.Errorf("import cycle through %s", ipath)
		}
	}
	c.loading = append(c.loading, ipath)
	defer func() { c.loading = c.loading[:len(c.loading)-1] }()

	dir := c.modRoot
	if ipath != c.modPath {
		dir = filepath.Join(c.modRoot, filepath.FromSlash(strings.TrimPrefix(ipath, c.modPath+"/")))
	}
	names, err := sourceFiles(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	conf := types.Config{Importer: c, FakeImportC: true}
	pkg, err := conf.Check(ipath, c.fset, files, info)
	if err != nil {
		return nil, err
	}
	l := &loaded{pkg: pkg, files: files, info: info}
	c.pkgs[ipath] = l
	return l, nil
}

// sourceFiles lists the non-test Go files of dir that build for the
// current platform, in sorted order.
func sourceFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no Go source files in %s", dir)
	}
	return names, nil
}

// lintFile reports every map-range in f that is neither a key/value
// collection nor annotated.
func (c *checker) lintFile(f *ast.File, info *types.Info) []Finding {
	var findings []Finding
	ast.Inspect(f, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := info.Types[rs.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		if collectsOnly(rs) || c.annotated(f, rs) {
			return true
		}
		findings = append(findings, Finding{
			Pos: c.fset.Position(rs.Pos()),
			Msg: "range over a map in a deterministic package: iteration order is randomized; " +
				"sort the keys, or annotate with //lint:ordered if order provably cannot reach any output",
		})
		return true
	})
	return findings
}

// collectsOnly reports whether the range body does nothing but append
// the loop variables to slices — the order-insensitive prelude to
// sorting.
func collectsOnly(rs *ast.RangeStmt) bool {
	if len(rs.Body.List) == 0 {
		return false
	}
	vars := map[string]bool{}
	for _, v := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := v.(*ast.Ident); ok && id.Name != "_" {
			vars[id.Name] = true
		}
	}
	for _, st := range rs.Body.List {
		as, ok := st.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 || as.Tok != token.ASSIGN {
			return false
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || len(call.Args) != 2 {
			return false
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok || fn.Name != "append" {
			return false
		}
		dst, arg := fmtNode(as.Lhs[0]), call.Args[1]
		first, ok := call.Args[0].(*ast.Ident)
		if !ok || first.Name != dst {
			return false
		}
		id, ok := arg.(*ast.Ident)
		if !ok || !vars[id.Name] {
			return false
		}
	}
	return true
}

// fmtNode renders a simple identifier ("" for anything more complex).
func fmtNode(e ast.Expr) string {
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// annotated reports whether a //lint:ordered comment sits on the range
// statement's line or the line directly above it.
func (c *checker) annotated(f *ast.File, rs *ast.RangeStmt) bool {
	line := c.fset.Position(rs.Pos()).Line
	for _, cg := range f.Comments {
		for _, cm := range cg.List {
			if !strings.Contains(cm.Text, "lint:ordered") {
				continue
			}
			l := c.fset.Position(cm.Pos()).Line
			if l == line || l == line-1 {
				return true
			}
		}
	}
	return false
}
