// Package load turns Go package patterns into parsed, type-checked
// packages for the bflint analyzers — a small stand-in for
// golang.org/x/tools/go/packages built from the standard library only.
// Package enumeration shells out to `go list` (the only authority on
// pattern expansion and build-tag file selection). The matched packages
// are type-checked from source; everything they import, the standard
// library included, is read from the gc export data that `go list
// -export` leaves in the local build cache. The go command compiles
// missing export data on demand and downloads nothing, so the loader
// works offline; the first load after the build cache is wiped pays for
// that compilation once.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// A Package is one parsed and type-checked package ready for analysis.
type Package struct {
	Path  string // import path
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// A Loader type-checks packages against one shared FileSet and export
// data importer, so repeated loads share the imported packages.
type Loader struct {
	Fset *token.FileSet
	imp  types.Importer
	// exports maps an import path to its export data file, as listed by
	// `go list -export`.
	exports map[string]string
}

// New returns a loader whose importer reads gc export data. Import paths
// are resolved through the go command, so callers must run with a
// working directory inside the module.
func New() *Loader {
	l := &Loader{Fset: token.NewFileSet(), exports: map[string]string{}}
	l.imp = importer.ForCompiler(l.Fset, "gc", l.lookup)
	return l
}

// lookup opens the export data of an import path. Paths no earlier
// listing covered (the imports of files handed to CheckFiles, or of test
// fixtures) are listed on first use.
func (l *Loader) lookup(path string) (io.ReadCloser, error) {
	if _, ok := l.exports[path]; !ok {
		if _, err := l.list(path); err != nil {
			return nil, err
		}
	}
	file := l.exports[path]
	if file == "" {
		return nil, fmt.Errorf("go list -export %s: no export data", path)
	}
	return os.Open(file)
}

// listedPackage is the subset of `go list -json` output the loader uses.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Match      []string
	Error      *struct{ Err string }
}

// list runs `go list -deps -export` on the patterns, records the export
// data of every listed package, and returns the packages the patterns
// match in the order plain `go list` prints them.
func (l *Loader) list(patterns ...string) ([]listedPackage, error) {
	listed, err := l.goList(patterns...)
	if err != nil {
		return nil, err
	}
	var targets []listedPackage
	for _, lp := range listed {
		if !lp.DepOnly {
			targets = append(targets, lp)
		}
	}
	return commandLineOrder(patterns, targets)
}

// goList runs one `go list -deps -export` over args (flags, then
// patterns) and records the export data file of every listed package
// that go list could resolve.
func (l *Loader) goList(args ...string) ([]listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Export,DepOnly,Match,Error"}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var listed []listedPackage
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if lp.Error == nil {
			l.exports[lp.ImportPath] = lp.Export
		}
		listed = append(listed, lp)
	}
	return listed, nil
}

// prefetch lists every import of files that no earlier listing covered
// in one go list call, so type-checking a package costs one go process
// rather than one per import. It is best effort: a path go list cannot
// resolve (an analysistest fixture's own package, or a real typo) is
// left to the importer, which resolves the fixture or reports the typo.
func (l *Loader) prefetch(files []*ast.File) {
	var missing []string
	for _, f := range files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || path == "unsafe" || path == "C" || slices.Contains(missing, path) {
				continue
			}
			if _, ok := l.exports[path]; !ok {
				missing = append(missing, path)
			}
		}
	}
	if len(missing) > 0 {
		_, _ = l.goList(append([]string{"-e"}, missing...)...)
	}
}

// commandLineOrder puts the matched packages back into the order plain
// `go list` prints them, which -deps replaces with dependency order:
// pattern by pattern, each package at its first match. A wildcard's
// matches come sorted by import path, or in directory-walk order (a
// directory, then its subdirectories, then its later siblings) for a
// pattern that names a directory. A pattern that matches nothing is an
// error, not an empty load.
func commandLineOrder(patterns []string, targets []listedPackage) ([]listedPackage, error) {
	var ordered []listedPackage
	seen := map[string]bool{}
	for _, raw := range patterns {
		pattern := cleanPattern(raw)
		var matched []listedPackage
		for _, lp := range targets {
			if slices.Contains(lp.Match, pattern) {
				matched = append(matched, lp)
			}
		}
		if len(matched) == 0 {
			return nil, fmt.Errorf("go list: pattern %q matched no packages", raw)
		}
		local := build.IsLocalImport(pattern) || filepath.IsAbs(pattern)
		slices.SortFunc(matched, func(a, b listedPackage) int {
			if local {
				return slices.Compare(strings.Split(a.ImportPath, "/"), strings.Split(b.ImportPath, "/"))
			}
			return strings.Compare(a.ImportPath, b.ImportPath)
		})
		for _, lp := range matched {
			if !seen[lp.ImportPath] {
				seen[lp.ImportPath] = true
				ordered = append(ordered, lp)
			}
		}
	}
	return ordered, nil
}

// cleanPattern puts a pattern in the canonical form go list reports in
// Match: cleaned, keeping a leading "./".
func cleanPattern(p string) string {
	switch {
	case filepath.IsAbs(p):
		return filepath.Clean(p)
	case strings.HasPrefix(p, "./"):
		if p = "./" + path.Clean(p); p == "./." {
			return "."
		}
		return p
	}
	return path.Clean(p)
}

// Load expands the patterns with one `go list -deps -export` call and
// type-checks each matched package from source (non-test files only),
// importing its dependencies from export data.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	targets, err := l.list(patterns...)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, lp := range targets {
		if len(lp.GoFiles) == 0 {
			continue
		}
		files := make([]string, len(lp.GoFiles))
		for i, f := range lp.GoFiles {
			files[i] = filepath.Join(lp.Dir, f)
		}
		pkg, err := l.Check(lp.ImportPath, lp.Dir, files)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// Check parses the named files and type-checks them as one package
// under the given import path.
func (l *Loader) Check(path, dir string, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(l.Fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return l.CheckFiles(path, dir, files)
}

// CheckFiles type-checks already-parsed files as one package, listing
// the imports no earlier load covered in one go list call first. The
// importer may be overridden with SetImporter (the analysistest harness
// layers fixture resolution over the export data importer this way).
func (l *Loader) CheckFiles(path, dir string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	l.prefetch(files)
	conf := types.Config{Importer: l.imp}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	return &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}, nil
}

// SetImporter replaces the loader's importer (used by the test harness
// to resolve fixture-local imports before falling back to export data).
func (l *Loader) SetImporter(imp types.Importer) { l.imp = imp }

// Importer exposes the loader's current importer so wrappers can
// delegate to it.
func (l *Loader) Importer() types.Importer { return l.imp }
