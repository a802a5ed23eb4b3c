package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"tspsz/internal/parallel"
)

// Package is one loaded, type-checked package of the module under analysis.
// Test files (*_test.go) are excluded: the invariants target production
// code, and tests legitimately use goroutines, math/rand, and float
// comparisons against golden values.
type Package struct {
	ImportPath string
	RelDir     string // module-relative directory, "" for the module root
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	TypeErrors []error

	mod *Module

	// Shared result of the taint engine (taint.go), computed on first
	// demand by either allocguard or indexguard.
	taintOnce sync.Once
	taintRes  *taintResults
}

// pkgSlot is the per-package loader cell. Slots for the whole dependency
// closure are created up front, so the waves of parallel type-checking
// only ever write their own slot and read slots completed in an earlier
// wave — no lock is needed beyond the barrier between waves.
type pkgSlot struct {
	rel     string
	imports []string // module-relative deps among known package dirs
	level   int      // 0 for leaves; max(dep levels)+1 otherwise
	pkg     *Package
	err     error
}

// Module holds the loader state for one Go module.
type Module struct {
	Root string // absolute path of the directory containing go.mod
	Path string // module path from go.mod

	fset  *token.FileSet
	slots map[string]*pkgSlot // keyed by RelDir; fixed before type-checking
	std   types.Importer
	stdMu sync.Mutex // the stdlib source importer is not safe for concurrent use

	// Interprocedural context (callgraph.go + summary.go), built once on
	// first demand over the full loaded closure.
	ipOnce sync.Once
	ip     *interCtx
}

// stdImporter lazily constructs the shared stdlib source importer. The
// source importer type-checks the standard library from $GOROOT/src, so it
// works without prebuilt export data (removed from Go distributions in
// 1.20) and adds no dependency beyond the standard library itself.
var (
	stdOnce sync.Once
	stdImp  types.Importer
)

func stdImporter() types.Importer {
	stdOnce.Do(func() {
		stdImp = importer.ForCompiler(token.NewFileSet(), "source", nil)
	})
	return stdImp
}

// LoadModule loads and type-checks the packages of the module rooted at or
// above dir that match the given patterns. Patterns follow the go tool's
// shape: "./..." (everything), "dir/..." (subtree), or a plain directory /
// import path. With no patterns, "./..." is assumed. Patterns are resolved
// relative to dir.
//
// Independent packages are type-checked in parallel: the loader first
// discovers the module-internal import graph syntactically (imports-only
// parses), rejects cycles, then parses and type-checks the packages level
// by level in topological order, so every import resolves to a package
// completed in an earlier wave.
func LoadModule(dir string, patterns []string) ([]*Package, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	m := &Module{
		Root:  root,
		Path:  modPath,
		fset:  token.NewFileSet(),
		slots: make(map[string]*pkgSlot),
		std:   stdImporter(),
	}
	dirs, err := m.packageDirs()
	if err != nil {
		return nil, err
	}
	rels, err := m.match(dir, dirs, patterns)
	if err != nil {
		return nil, err
	}
	if err := m.loadAll(rels, dirs); err != nil {
		return nil, err
	}
	out := make([]*Package, len(rels))
	for i, rel := range rels {
		out[i] = m.slots[rel].pkg
	}
	return out, nil
}

// findModule walks up from dir to the enclosing go.mod.
func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			mp := parseModulePath(string(data))
			if mp == "" {
				return "", "", fmt.Errorf("%s/go.mod: no module directive", d)
			}
			return d, mp, nil
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("no go.mod found at or above %s", abs)
		}
	}
}

func parseModulePath(gomod string) string {
	for _, line := range strings.Split(gomod, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			rest = strings.Trim(rest, `"`)
			if rest != "" {
				return rest
			}
		}
	}
	return ""
}

// packageDirs walks the module and returns the module-relative directories
// holding at least one non-test .go file, sorted.
func (m *Module) packageDirs() ([]string, error) {
	var out []string
	err := filepath.WalkDir(m.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != m.Root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		// A nested module shadows its subtree.
		if path != m.Root {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		names, err := goSourceFiles(path)
		if err != nil {
			return err
		}
		if len(names) > 0 {
			out = append(out, m.rel(path))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}

// goSourceFiles lists the non-test .go files of dir, sorted.
func goSourceFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// rel converts an absolute path inside the module to a module-relative one.
func (m *Module) rel(path string) string {
	r, err := filepath.Rel(m.Root, path)
	if err != nil || r == "." {
		return ""
	}
	return filepath.ToSlash(r)
}

// match resolves patterns (relative to from) against the known package
// directories.
func (m *Module) match(from string, dirs, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	absFrom, err := filepath.Abs(from)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var out []string
	add := func(rel string) {
		if !seen[rel] {
			seen[rel] = true
			out = append(out, rel)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if p, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = p
			if pat == "." || pat == "" {
				pat = "."
			}
		} else if pat == "..." {
			recursive = true
			pat = "."
		}
		// Accept import paths rooted at the module path as well as
		// filesystem paths.
		var base string
		if pat == m.Path {
			base = ""
		} else if rest, ok := strings.CutPrefix(pat, m.Path+"/"); ok {
			base = rest
		} else {
			abs := pat
			if !filepath.IsAbs(abs) {
				abs = filepath.Join(absFrom, pat)
			}
			base = m.rel(abs)
		}
		matched := false
		for _, d := range dirs {
			if d == base || (recursive && (base == "" || strings.HasPrefix(d, base+"/"))) {
				add(d)
				matched = true
			}
		}
		if !matched && !recursive {
			return nil, fmt.Errorf("pattern %q matches no packages", pat)
		}
	}
	sort.Strings(out)
	return out, nil
}

// loadAll populates m.slots for the dependency closure of rels and
// type-checks every package, parallelizing across independent packages.
func (m *Module) loadAll(rels, dirs []string) error {
	known := make(map[string]bool, len(dirs))
	for _, d := range dirs {
		known[d] = true
	}

	// Phase 1 — syntactic dependency discovery. Imports-only parses are
	// cheap; syntax errors here are ignored and resurface in the full
	// parse below.
	dfset := token.NewFileSet() // throwaway positions; token.FileSet is concurrency-safe
	frontier := append([]string(nil), rels...)
	sort.Strings(frontier)
	for len(frontier) > 0 {
		deps := make([][]string, len(frontier))
		batch := frontier
		if err := parallel.For(nil, len(batch), 0, 1, func(i int) error {
			deps[i] = m.scanImports(batch[i], dfset, known)
			return nil
		}); err != nil {
			return err
		}
		// A fresh slice, not frontier[:0]: batch aliases the old backing
		// array, and appends below must not scribble over it while the
		// loops that follow still read batch.
		frontier = nil
		for i, rel := range batch {
			m.slots[rel] = &pkgSlot{rel: rel, imports: deps[i]}
		}
		for i := range batch {
			for _, dep := range deps[i] {
				if _, ok := m.slots[dep]; !ok && !containsStr(frontier, dep) {
					frontier = append(frontier, dep)
				}
			}
		}
		sort.Strings(frontier)
	}

	// Phase 2 — cycle guard. Go forbids import cycles, so hitting one
	// means the tree cannot type-check meaningfully; fail loudly and
	// deterministically instead of wedging the wave scheduler.
	if cyc := findImportCycle(m.slots); cyc != "" {
		return fmt.Errorf("import cycle through %q", cyc)
	}

	// Phase 3 — topological levels: level(p) = 1 + max level of its
	// module-internal imports. All packages of one level are mutually
	// independent and type-check concurrently; the barrier between waves
	// (inside parallel.For) gives each wave a happens-before edge on the
	// slots it reads.
	var level func(s *pkgSlot) int
	level = func(s *pkgSlot) int {
		if s.level > 0 {
			return s.level
		}
		lv := 1
		for _, dep := range s.imports {
			if d := m.slots[dep]; d != nil {
				if dl := level(d) + 1; dl > lv {
					lv = dl
				}
			}
		}
		s.level = lv
		return lv
	}
	maxLevel := 0
	for _, s := range m.slots {
		if lv := level(s); lv > maxLevel {
			maxLevel = lv
		}
	}
	waves := make([][]*pkgSlot, maxLevel+1)
	for _, s := range m.slots {
		waves[s.level] = append(waves[s.level], s)
	}

	// Phase 4 — parse and type-check, wave by wave.
	for _, wave := range waves {
		sort.Slice(wave, func(i, j int) bool { return wave[i].rel < wave[j].rel })
		if err := parallel.For(nil, len(wave), 0, 1, func(i int) error {
			m.loadSlot(wave[i])
			return nil
		}); err != nil {
			return err
		}
	}

	// Surface the first failure in deterministic order. Type errors stay
	// soft (collected per package); only parse and filesystem failures
	// land here.
	ordered := make([]string, 0, len(m.slots))
	for rel := range m.slots {
		ordered = append(ordered, rel)
	}
	sort.Strings(ordered)
	for _, rel := range ordered {
		if s := m.slots[rel]; s.err != nil {
			ip := m.Path
			if rel != "" {
				ip = m.Path + "/" + rel
			}
			return fmt.Errorf("loading %s: %w", ip, s.err)
		}
	}
	return nil
}

func containsStr(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// scanImports parses only the import clauses of the package in rel and
// returns its module-internal dependencies among known package dirs.
func (m *Module) scanImports(rel string, dfset *token.FileSet, known map[string]bool) []string {
	dir := filepath.Join(m.Root, filepath.FromSlash(rel))
	names, err := goSourceFiles(dir)
	if err != nil {
		return nil
	}
	set := make(map[string]bool)
	for _, n := range names {
		f, err := parser.ParseFile(dfset, filepath.Join(dir, n), nil, parser.ImportsOnly)
		if err != nil || f == nil {
			continue
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			var dep string
			if p == m.Path {
				dep = ""
			} else if rest, ok := strings.CutPrefix(p, m.Path+"/"); ok {
				dep = rest
			} else {
				continue
			}
			if dep != rel && known[dep] {
				set[dep] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// findImportCycle returns a member of some module-internal import cycle,
// or "" if the graph is acyclic. Iteration order is sorted for a
// deterministic error message.
func findImportCycle(slots map[string]*pkgSlot) string {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int, len(slots))
	var visit func(rel string) string
	visit = func(rel string) string {
		color[rel] = gray
		for _, dep := range slots[rel].imports {
			switch color[dep] {
			case gray:
				return dep
			case white:
				if c := visit(dep); c != "" {
					return c
				}
			}
		}
		color[rel] = black
		return ""
	}
	ordered := make([]string, 0, len(slots))
	for rel := range slots {
		ordered = append(ordered, rel)
	}
	sort.Strings(ordered)
	for _, rel := range ordered {
		if color[rel] == white {
			if c := visit(rel); c != "" {
				return c
			}
		}
	}
	return ""
}

// loadSlot parses and type-checks one package. It runs concurrently with
// other slots of the same wave: it writes only its own slot, reads only
// slots of earlier waves (through moduleImporter), and serializes stdlib
// imports behind m.stdMu.
func (m *Module) loadSlot(s *pkgSlot) {
	dir := filepath.Join(m.Root, filepath.FromSlash(s.rel))
	names, err := goSourceFiles(dir)
	if err != nil {
		s.err = err
		return
	}
	if len(names) == 0 {
		s.err = fmt.Errorf("no Go source files in %s", dir)
		return
	}
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			s.err = err
			return
		}
		files = append(files, f)
	}
	importPath := m.Path
	if s.rel != "" {
		importPath = m.Path + "/" + s.rel
	}
	p := &Package{
		ImportPath: importPath,
		RelDir:     s.rel,
		Dir:        dir,
		Fset:       m.fset,
		Files:      files,
		Info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
		},
		mod: m,
	}
	conf := types.Config{
		Importer: (*moduleImporter)(m),
		Error: func(err error) {
			p.TypeErrors = append(p.TypeErrors, err)
		},
	}
	// Type errors are collected, not fatal: the syntactic checks and any
	// type-based check with partial info still run.
	p.Types, _ = conf.Check(importPath, m.fset, files, p.Info)
	s.pkg = p
}

// moduleImporter resolves module-internal imports from the slots completed
// in earlier waves and delegates everything else to the stdlib source
// importer (serialized: it is not safe for concurrent use).
type moduleImporter Module

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	m := (*Module)(mi)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	var rel string
	isModule := false
	if path == m.Path {
		rel, isModule = "", true
	} else if rest, ok := strings.CutPrefix(path, m.Path+"/"); ok {
		rel, isModule = rest, true
	}
	if isModule {
		s := m.slots[rel]
		if s == nil || s.pkg == nil {
			return nil, fmt.Errorf("package %q not loaded", path)
		}
		return s.pkg.Types, nil
	}
	m.stdMu.Lock()
	defer m.stdMu.Unlock()
	return m.std.Import(path)
}
