package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// callerRoots are the trees whose non-test files count as callers; exports
// are declared under the first two.
var callerRoots = []string{"cmd", "internal", "examples", "bench"}

// forTests are the packages and files that exist to drive tests: their
// exports need no caller outside tests.
var forTests = []string{
	"internal/testkit/", "internal/scenario/", "internal/faultnet/",
	"internal/telemetry/testsink.go",
}

// interfaceMethods are called by the standard library through an
// interface, never by name in this module.
var interfaceMethods = map[string]bool{
	"Len": true, "Less": true, "Swap": true, // sort.Interface
	"Unwrap":        true, // errors.Is / errors.As
	"UnmarshalJSON": true, // encoding/json
}

// exportsWithoutCallers is the allowlist: exports only tests call, each
// with the reason it stays.
var exportsWithoutCallers = map[string]string{
	"mckp.SolveExhaustive": "the brute-force oracle SolveDP is cross-validated against",

	"darshan.LoadDB":         roadmap11,
	"darshan.DB.Pattern":     roadmap11,
	"darshan.DB.Record":      roadmap11,
	"darshan.DB.Save":        roadmap11,
	"darshan.Report.PerFile": roadmap11,

	"arbiter.Arbiter.NodesIn":     observes,
	"arbiter.Arbiter.Quarantined": observes,
	"elastic.Scaler.Members":      observes,
	"ion.Daemon.QueueSaturated":   observes,
	"livestack.Stack.DaemonAt":    observes,
	"livestack.Stack.IONAddrs":    observes,
	"livestack.Stack.RestartION":  observes,
	"perfmodel.Model.Params":      observes,
	"pfs.Store.List":              observes,
	"qos.Bucket.Tokens":           observes,
	"rpc.Client.BreakerState":     observes,
	"telemetry.ParsePrometheus":   observes,
	"telemetry.Tracer.Active":     observes,
}

const (
	roadmap11 = "the Darshan history store: ROADMAP item 11 decides whether it stays"
	observes  = "the accessor tests observe or drive the live stack through"
)

// TestEveryExportHasACaller: every exported function and method under cmd
// and internal is referenced by a non-test file somewhere in the module
// (bench included) outside its own declaration, or it is on the allowlist
// above. Code only its own tests call is a second path nothing takes; delete
// it. An example program without a _test.go fails too, and is no caller.
// Functions match by package and name (a bare name inside their own
// package, pkg.Name elsewhere); methods match by name alone, since without
// types a call through an interface looks like any other selector.
func TestEveryExportHasACaller(t *testing.T) {
	type decl struct {
		key, dir, name string
		method         bool
	}
	untested := map[string]bool{}
	examples, err := filepath.Glob("examples/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range examples {
		if tests, _ := filepath.Glob(filepath.Join(dir, "*_test.go")); len(tests) == 0 {
			untested[dir] = true
			t.Errorf("%s has no test: test the example or delete it", dir)
		}
	}

	var decls []decl
	refs := refs{funcs: map[string]bool{}, methods: map[string]bool{}}
	fset := token.NewFileSet()
	for _, root := range callerRoots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && untested[path] {
				return filepath.SkipDir
			}
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			path = filepath.ToSlash(path)
			refs.dir = filepath.ToSlash(filepath.Dir(path))
			refs.imports = map[string]string{}
			for _, im := range f.Imports {
				rel, ok := strings.CutPrefix(strings.Trim(im.Path.Value, `"`), "repro/")
				if !ok {
					continue
				}
				name := rel[strings.LastIndex(rel, "/")+1:]
				if im.Name != nil {
					name = im.Name.Name
				}
				refs.imports[name] = rel
			}
			declares := root == "cmd" || root == "internal"
			for _, prefix := range forTests {
				declares = declares && !strings.HasPrefix(path, prefix)
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					refs.self = ""
					ast.Inspect(d, refs.visit)
					continue
				}
				if declares && fd.Name.IsExported() {
					key := strings.TrimPrefix(refs.dir, "internal/") + "."
					if fd.Recv != nil {
						key += recvName(fd.Recv.List[0].Type) + "."
					}
					decls = append(decls, decl{key + fd.Name.Name, refs.dir, fd.Name.Name, fd.Recv != nil})
				}
				if fd.Body != nil {
					refs.self = fd.Name.Name
					ast.Inspect(fd.Body, refs.visit)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	var missing []string
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		called := refs.funcs[d.dir+"."+d.name]
		if d.method {
			called = refs.methods[d.name] || interfaceMethods[d.name]
		}
		_, allowed := exportsWithoutCallers[d.key]
		switch {
		case allowed && called:
			t.Errorf("%s is allowlisted but has a caller: drop it from exportsWithoutCallers", d.key)
		case !allowed && !called:
			missing = append(missing, d.key)
		}
	}
	for key := range exportsWithoutCallers {
		if !declared[key] {
			t.Errorf("allowlisted %s is not declared: drop it from exportsWithoutCallers", key)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		t.Fatalf("exported but called only by tests (delete them, or allowlist one with its reason):\n\t%s",
			strings.Join(missing, "\n\t"))
	}
}

// refs collects the names one file's code references.
type refs struct {
	funcs   map[string]bool // "pkgdir.Name"
	methods map[string]bool // "Name"

	dir     string            // the file's package directory
	imports map[string]string // the file's import names → package directory
	self    string            // the function being walked: recursion is no caller
}

func (r *refs) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.SelectorExpr:
		if x, ok := n.X.(*ast.Ident); ok {
			if pkg, ok := r.imports[x.Name]; ok {
				r.funcs[pkg+"."+n.Sel.Name] = true
				return false
			}
		}
		if n.Sel.Name != r.self {
			r.methods[n.Sel.Name] = true
		}
		ast.Inspect(n.X, r.visit)
		return false
	case *ast.Ident:
		if n.Name != r.self {
			r.funcs[r.dir+"."+n.Name] = true
		}
	}
	return true
}

// recvName is the receiver's type name, without pointer or type parameters.
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
