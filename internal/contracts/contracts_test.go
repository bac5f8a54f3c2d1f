// Package contracts holds TestRepoContracts, which type-checks the
// module's product code with the standard library alone and asserts the
// five rules of DESIGN.md's "Contracts the repo checks". Every allowlist
// entry gives its reason, and an entry no longer needed fails the test.
package contracts

import (
	"encoding/json"
	"flag"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mobilegossip/client"
	"mobilegossip/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite api/*.txt from the exported surface")

const module = "mobilegossip"

// deadAllow lists the functions with no product caller that stay, by
// types.Func.FullName without the module prefix: contract oracles and
// model-budget reads the tests assert through.
var deadAllow = map[string]string{
	"(*internal/tokenset.Set).HashRange":  "the definition HashRangeEqual and the exchange's fused probe are pinned to",
	"(*internal/tokenset.Set).CountRange": "the definition the span and popcount paths are pinned to",
	"(*internal/tokenset.Set).Clone":      "the snapshot the tokenset and eqtest differential tests take before an exchange mutates a set",
	"internal/eqtest.EQTest":              "§3's EQ test as the paper states it; the exchange's fused probe is tested against it",
	"(*internal/graph.Graph).EqualCSR":    "the oracle of the Load, Patcher and Builder equivalence tests",
	"(*internal/graph.Graph).Edges":       "the (u < v) pair list the schedule, mobility and adversary tests compare topologies by",
	"(*internal/mtm.Conn).BitsUsed":       "reads the paper's per-connection bit budget that tests assert",
	"(*internal/mtm.Conn).TokensUsed":     "reads the paper's per-connection token budget that tests assert",
	"(*internal/mtm.Conn).OverBudget":     "reports a connection over the paper's budgets, asserted by tests",
}

// simPackages, the root and internal/<name>, compute a function of the seed.
var simPackages = []string{module, "adversary", "ckpt", "core", "dyngraph", "eqtest", "graph",
	"leader", "mobility", "modmath", "mtm", "outcome", "prand", "rumor", "stats", "tokenset"}

// clockAllow counts simPackages' wall-clock reads and goroutine starts.
var clockAllow = map[string]int{
	"internal/mtm/mtm.go (*Engine).Step time.Now":       1, // profiler: round start
	"internal/mtm/mtm.go (*Engine).Step time.Since":     1, // profiler: round total
	"internal/mtm/mtm.go lap time.Now":                  1, // profiler: phase laps
	"internal/mtm/mtm.go (*Engine).exchange go":         1, // the exchange fan-out's parked helpers
	"checkpoint.go (*Simulation).Checkpoint time.Now":   1, // profiler: checkpoint write start
	"checkpoint.go (*Simulation).Checkpoint time.Since": 1, // profiler: checkpoint write time
}

// knobAllow lists the wire fields and gossipsim flags ("-flag") that no
// committed scenario with a golden sets; a key may name several.
var knobAllow = map[string]string{
	"profile":                          "a wall-clock sidecar; the determinism matrix's -profile cell checks it changes no output",
	"transfer_eps":                     "Transfer(ε)'s failure bound; every run takes the 1/n³ default, and the scenario format has no field for it",
	"crowdedbin_beta crowdedbin_gamma": "set only by harness E20, pinned in quick.csv; the scenario format has no field for them",
	"rows cols clique_size path_len":   "grid and barbell shapes: no committed scenario draws either (ROADMAP item 12)",
	"radius":                           "set by harness E23's radio-range sweep, pinned in quick.csv",
	"attach levy_alpha":                "pa's and levy's shape: every run takes the default (ROADMAP item 12)",
	"-engineworkers":                   "accepted and ignored; deleted with Config.EngineWorkers in the contract window (ROADMAP item 15)",
	// Run I/O and transport, not simulation knobs; the determinism matrix,
	// determinism-remote and the events goldens cover them.
	"-checkpoint -checkpointat -resume -events -metrics -remote -remotepause": "run I/O and transport",
}

type pkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// repo is the module's product code, type-checked, and the standard library it imports.
type repo struct {
	root string
	fset *token.FileSet
	pkgs map[string]*pkg
	std  map[string]*types.Package
	src  types.Importer
}

func load() (*repo, error) {
	r := &repo{root: "../..", fset: token.NewFileSet(), pkgs: map[string]*pkg{}, std: map[string]*types.Package{}}
	r.src = importer.ForCompiler(r.fset, "source", nil)
	err := filepath.WalkDir(r.root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if _, mod := os.Stat(filepath.Join(dir, "go.mod")); dir != r.root &&
			(mod == nil || strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir // bench/ is a module of its own
		}
		names, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		rel, _ := filepath.Rel(r.root, dir)
		p := &pkg{path: filepath.ToSlash(filepath.Join(module, rel))}
		for _, name := range names {
			if !strings.HasSuffix(name, "_test.go") {
				f, err := parser.ParseFile(r.fset, name, nil, parser.ParseComments)
				if err != nil {
					return err
				}
				p.files = append(p.files, f)
			}
		}
		if len(p.files) > 0 {
			r.pkgs[p.path] = p
		}
		return nil
	})
	for _, p := range r.sorted() {
		if _, ierr := r.Import(p.path); err == nil {
			err = ierr
		}
	}
	return r, err
}

// Import type-checks a module package on first use; the source importer reads the standard library.
func (r *repo) Import(path string) (*types.Package, error) {
	p := r.pkgs[path]
	if p == nil {
		std, err := r.src.Import(path)
		r.std[path] = std
		return std, err
	}
	var err error
	if p.types == nil {
		p.info = &types.Info{Types: map[ast.Expr]types.TypeAndValue{},
			Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		p.types, err = (&types.Config{Importer: r}).Check(path, r.fset, p.files, p.info)
	}
	return p.types, err
}

func (r *repo) sorted() []*pkg {
	return slices.SortedFunc(maps.Values(r.pkgs), func(a, b *pkg) int { return strings.Compare(a.path, b.path) })
}

func TestRepoContracts(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module from source; make contracts and test-full run it")
	}
	r, err := load()
	if err != nil {
		t.Fatal(err)
	}
	t.Run("EveryFunctionHasAProductCaller", func(t *testing.T) { checkCallers(t, r) })
	t.Run("NoMapOrderNoStrayClockOrGoroutine", func(t *testing.T) { checkSim(t, r) })
	t.Run("APIListings", func(t *testing.T) { checkAPI(t, r) })
	t.Run("EveryKnobExercised", func(t *testing.T) { checkKnobs(t, r) })
}

// checkCallers walks the reference graph from the product roots; a
// declared function it never reaches has no product caller.
func checkCallers(t *testing.T, r *repo) {
	refs := map[*types.Func][]*types.Func{} // a declaration → the functions it names
	byName := map[string]*types.Func{}
	var roots []*types.Func
	var named []*types.Named // the module's concrete, non-generic named types
	for _, p := range r.sorted() {
		for _, f := range p.files {
			for _, d := range f.Decls {
				var uses []*types.Func
				ast.Inspect(d, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := p.info.Uses[id].(*types.Func); ok {
							uses = append(uses, fn.Origin())
						}
					}
					return true
				})
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					roots = append(roots, uses...) // package-level initializers
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				refs[fn], byName[strings.ReplaceAll(fn.FullName(), module+"/", "")] = uses, fn
				if fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main" && p.types.Name() == "main" ||
					fn.Exported() && (p.path == module || p.path == module+"/client")) {
					roots = append(roots, fn)
				}
			}
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, _ := scope.Lookup(name).(*types.TypeName)
			t, ok := types.Unalias(scope.Lookup(name).Type()).(*types.Named) // an alias's target too
			if tn == nil || !ok {
				continue
			}
			if !tn.IsAlias() && !types.IsInterface(t) && t.TypeParams().Len() == 0 {
				named = append(named, t)
			}
			for i := 0; tn.Exported() && (p.path == module || p.path == module+"/client") && i < t.NumMethods(); i++ {
				roots = append(roots, t.Method(i)) // the public types' methods
			}
		}
	}
	// impls are the methods, declared or promoted, that a call of iface's
	// method name dispatches to.
	impls := func(iface *types.Interface, pkg *types.Package, name string) (out []*types.Func) {
		for _, t := range named {
			if ptr := types.NewPointer(t); types.Implements(ptr, iface) {
				if fn, ok := types.NewMethodSet(ptr).Lookup(pkg, name).Obj().(*types.Func); ok {
					out = append(out, fn.Origin())
				}
			}
		}
		return out
	}
	// The standard library calls module methods through its interfaces
	// (String, Error, ServeHTTP, Less, ...): each implementation is a root.
	ifaces := []types.Type{types.Universe.Lookup("error").Type()}
	for _, path := range slices.Sorted(maps.Keys(r.std)) {
		for _, name := range r.std[path].Scope().Names() {
			if t, ok := r.std[path].Scope().Lookup(name).Type().(*types.Named); ok && types.IsInterface(t) && t.TypeParams().Len() == 0 {
				ifaces = append(ifaces, t)
			}
		}
	}
	for _, t := range ifaces {
		if iface := t.Underlying().(*types.Interface); iface.IsMethodSet() {
			for i := range iface.NumMethods() {
				roots = append(roots, impls(iface, nil, iface.Method(i).Name())...)
			}
		}
	}
	reached := map[*types.Func]bool{}
	var visit func(fn *types.Func)
	visit = func(fn *types.Func) {
		if reached[fn] {
			return
		}
		reached[fn] = true
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			for _, m := range impls(recv.Type().Underlying().(*types.Interface), fn.Pkg(), fn.Name()) {
				visit(m)
			}
		}
		for _, g := range refs[fn] {
			visit(g)
		}
	}
	for _, fn := range roots {
		visit(fn)
	}
	for key, reason := range deadAllow {
		if fn := byName[key]; fn == nil || reached[fn] || reason == "" {
			t.Errorf("deadAllow[%q]: stale entry (no such function, it has a product caller, or no reason)", key)
		}
	}
	for _, key := range slices.Sorted(maps.Keys(deadAllow)) {
		if fn := byName[key]; fn != nil {
			visit(fn)
		}
	}
	for _, key := range slices.Sorted(maps.Keys(byName)) {
		if fn := byName[key]; !reached[fn] {
			t.Errorf("%s: %s has no product caller: delete it, move it to an export_test.go, or list it in deadAllow with a reason", r.fset.Position(fn.Pos()), key)
		}
	}
}

// checkSim walks simPackages for the map-order rule and counts wall-clock
// reads and go statements per "file function what" site for clockAllow.
func checkSim(t *testing.T, r *repo) {
	clock := map[string]int{}
	for _, p := range r.sorted() {
		if !slices.Contains(simPackages, strings.TrimPrefix(p.path, module+"/internal/")) {
			continue
		}
		for _, f := range p.files {
			det := map[int]bool{} // lines holding a //det: comment
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if strings.HasPrefix(c.Text, "//det:") {
						det[r.fset.Position(c.Pos()).Line] = true
					}
				}
			}
			rel, _ := filepath.Rel(r.root, r.fset.Position(f.Pos()).Filename)
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				site := filepath.ToSlash(rel) + " " + fd.Name.Name
				if recv := p.info.Defs[fd.Name].Type().(*types.Signature).Recv(); recv != nil {
					site = filepath.ToSlash(rel) + " (" + types.TypeString(recv.Type(), types.RelativeTo(p.types)) + ")." + fd.Name.Name
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.RangeStmt:
						line := r.fset.Position(n.Pos()).Line
						if _, isMap := p.info.TypeOf(n.X).Underlying().(*types.Map); isMap && !det[line] && !det[line-1] &&
							!onlyDeletes(n.Body) && !sortedAfter(p, fd.Body, n) {
							t.Errorf("%s, line %d: range over a map: collect and sort its keys, only delete, or say why order cannot matter in a //det: comment", site, line)
						}
					case *ast.GoStmt:
						clock[site+" go"]++
					case *ast.Ident:
						if fn, ok := p.info.Uses[n].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "time" &&
							(fn.Name() == "Now" || fn.Name() == "Since") {
							clock[site+" time."+fn.Name()]++
						}
					}
					return true
				})
			}
		}
	}
	for site := range clockAllow {
		clock[site] += 0 // a stale entry reads 0
	}
	for _, site := range slices.Sorted(maps.Keys(clock)) {
		if clock[site] != clockAllow[site] {
			t.Errorf("%s: %d occurrences, clockAllow lists %d", site, clock[site], clockAllow[site])
		}
	}
}

// onlyDeletes reports whether body does nothing but delete, perhaps under
// an if.
func onlyDeletes(body *ast.BlockStmt) bool {
	for _, s := range body.List {
		switch s := s.(type) {
		case *ast.IfStmt:
			if s.Init != nil || s.Else != nil || !onlyDeletes(s.Body) {
				return false
			}
		case *ast.ExprStmt:
			if !strings.HasPrefix(types.ExprString(s.X), "delete(") {
				return false
			}
		default:
			return false
		}
	}
	return len(body.List) > 0
}

// sortedAfter reports whether the loop's body is just s = append(s, key)
// and a sort or slices sorting function is called on s after the loop.
func sortedAfter(p *pkg, body *ast.BlockStmt, rs *ast.RangeStmt) bool {
	if len(rs.Body.List) != 1 || rs.Key == nil {
		return false
	}
	as, _ := rs.Body.List[0].(*ast.AssignStmt)
	if as == nil || len(as.Rhs) != 1 ||
		types.ExprString(as.Rhs[0]) != "append("+types.ExprString(as.Lhs[0])+", "+types.ExprString(rs.Key)+")" {
		return false
	}
	dst := types.ExprString(as.Lhs[0])
	sorted := false
	ast.Inspect(body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok && c.Pos() > rs.End() && len(c.Args) > 0 && types.ExprString(c.Args[0]) == dst {
			if sel, ok := c.Fun.(*ast.SelectorExpr); ok {
				fn, ok := p.info.Uses[sel.Sel].(*types.Func)
				sorted = sorted || ok && fn.Pkg() != nil && (fn.Pkg().Path() == "sort" || fn.Pkg().Path() == "slices") &&
					(strings.HasPrefix(fn.Name(), "Sort") || fn.Name() == "Strings" || fn.Name() == "Ints" || fn.Name() == "Slice")
			}
		}
		return !sorted
	})
	return sorted
}

// checkAPI compares each public package's exported surface with its
// committed listing.
func checkAPI(t *testing.T, r *repo) {
	for _, path := range []string{module, module + "/client"} {
		file := filepath.Join(r.root, "api", filepath.Base(path)+".txt")
		got := apiListing(r.pkgs[path].types)
		if *update {
			_ = os.WriteFile(file, []byte(got), 0o644) // a failed write fails the comparison below
		}
		want, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		w, g := strings.Split(string(want), "\n"), strings.Split(got, "\n")
		for _, l := range slices.Concat(w, g) {
			if listed := slices.Contains(w, l); listed != slices.Contains(g, l) {
				t.Errorf("%s: %q is only in the %s (-update rewrites the listing)", file, l, map[bool]string{true: "listing", false: "code"}[listed])
			}
		}
	}
}

// apiListing prints one sorted line per exported object, exported struct
// field and exported method; an alias lists its target's methods.
func apiListing(p *types.Package) string {
	q := func(o *types.Package) string { return map[bool]string{true: "", false: o.Name()}[o == p] }
	var lines []string
	for _, name := range p.Scope().Names() {
		obj := p.Scope().Lookup(name)
		if !obj.Exported() {
			continue
		}
		line := types.ObjectString(obj, q)
		if c, ok := obj.(*types.Const); ok {
			line += " = " + c.Val().ExactString()
		}
		if tn, ok := obj.(*types.TypeName); ok {
			t, _ := types.Unalias(obj.Type()).(*types.Named)
			if s, ok := obj.Type().Underlying().(*types.Struct); ok && !tn.IsAlias() {
				line = "type " + name + " struct" // and its exported fields, one a line
				for i := range s.NumFields() {
					if s.Field(i).Exported() {
						lines = append(lines, name+": "+types.ObjectString(s.Field(i), q))
					}
				}
			}
			for i := 0; t != nil && i < t.NumMethods(); i++ {
				if m := t.Method(i); m.Exported() {
					lines = append(lines, name+": "+types.ObjectString(m, q))
				}
			}
		}
		lines = append(lines, line)
	}
	slices.Sort(lines)
	return strings.Join(lines, "\n") + "\n"
}

// checkKnobs requires every wire field, and every gossipsim flag that is
// not one, to be set by a committed scenario with a golden or allowlisted.
func checkKnobs(t *testing.T, r *repo) {
	set := map[string]json.RawMessage{} // every field a scenario sets
	mark := func(v any) {
		if data, _ := json.Marshal(v); data[0] == '{' { // omitempty drops the fields left unset
			_ = json.Unmarshal(data, &set)
		}
	}
	paths, _ := filepath.Glob(filepath.Join(r.root, "scenarios", "*.yaml"))
	for _, path := range paths {
		golden := filepath.Join(r.root, "scenarios", "golden", strings.TrimSuffix(filepath.Base(path), ".yaml"))
		if _, err := os.Stat(golden + ".table.txt"); err != nil {
			continue
		}
		s, err := scenario.ParseFile(path)
		if err != nil {
			t.Fatal(err)
		}
		_, err = os.Stat(golden + ".events.jsonl")
		req := s.CreateRequest(s.N, s.K, s.Seed, err == nil)
		mark(req)
		mark(req.Topology)
		for _, ph := range s.Phases {
			mark(ph.Topology)
		}
	}
	allow := map[string]string{}
	for keys, reason := range knobAllow {
		for _, key := range strings.Fields(keys) {
			allow[key] = reason
		}
	}
	covered := func(key string) { // a flag ("-name") is never in set
		_, ok := set[key]
		if reason, listed := allow[key]; ok == listed || listed && reason == "" {
			t.Errorf("knob %s: set by a scenario with a golden = %v, knobAllow entry = %v; want exactly one (with a reason)", key, ok, listed)
		}
	}
	wire := map[string]string{"alg": "algorithm", "b": "tag_bits", "graph": "kind"} // flag → field, where the names differ
	for _, typ := range []reflect.Type{reflect.TypeFor[client.CreateRequest](), reflect.TypeFor[client.TopologySpec]()} {
		for i := range typ.NumField() {
			if name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ","); name != "topology" {
				wire[strings.ReplaceAll(name, "_", "")] = name
				covered(name)
			}
		}
	}
	doc, err := os.ReadFile(filepath.Join(r.root, "docs", "cli.md"))
	if err != nil {
		t.Fatal(err)
	}
	section := ""
	for _, line := range strings.Split(string(doc), "\n") { // the gossipsim sections' "  -flag type" lines
		if strings.HasPrefix(line, "## ") {
			section = line
		} else if f := strings.Fields(line); strings.HasPrefix(line, "  -") && strings.HasPrefix(section, "## gossipsim") {
			if _, isField := wire[f[0][1:]]; !isField {
				covered(f[0])
			} else if _, listed := allow[f[0]]; listed {
				t.Errorf("knobAllow[%q]: stale entry, the flag sets wire field %s", f[0], wire[f[0][1:]])
			}
		}
	}
}
