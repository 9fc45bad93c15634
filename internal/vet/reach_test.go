package vet_test

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"

	"dmml/internal/vet"
)

// keepUnreached lists the internal/ functions that no shipped entry point
// reaches but that stay anyway, each with the reason it stays. An entry that
// becomes reached, or no longer exists, fails the test: the list cannot rot.
var keepUnreached = map[string]string{
	"storage.(*BufferPool).SetFailureHooks": "the buffer pool's fault-injection seam: spill-read and " +
		"spill-write failures are injected through it, and error-path work on the pool needs it",
	"paramserver.(*Server).RestoreFromCheckpoint": "checkpoint restore path: recovery code, exercised by the " +
		"parameter server's fault tests until a binary warm-starts from a checkpoint",
	"storage.ReadCheckpoint": "checkpoint restore path: reads what paramserver's checkpointing writes",
	"la.FromRows": "fixture constructor the tests of cmd/dmml, dml, factorized, storage, modeldb " +
		"and compress build their matrices with; a _test.go file cannot export it across packages",
	"la.(*Dense).Equal": "tolerance comparison the tests of several packages check their " +
		"results with; a _test.go file cannot export it across packages",
}

// TestEveryEngineFunctionIsReached keeps engine code honest about its
// callers: the engine is what ships. Its roots are main and init of every
// package under cmd/, plus every declaration in every file under bench/ (the
// benchmark's _test.go files included: they must keep compiling). Examples
// are not roots: code only an example runs belongs in that example. Edges are
// static references; a call through an interface method reaches each module
// method of that name whose receiver type is itself reached (then or later),
// and a reached type keeps the methods by which it satisfies an interface of
// a standard-library package the module imports (fmt.Stringer, error,
// sort.Interface, ...). The root module's own tests are not roots. Any
// internal/ function or method left unreached must be deleted, or earn a
// line in keepUnreached.
func TestEveryEngineFunctionIsReached(t *testing.T) {
	m := loadModule(t)
	r := newReach(m)
	for path, p := range m.Pkgs {
		rel := strings.TrimPrefix(path, m.Path+"/")
		switch {
		case strings.HasPrefix(rel, "cmd/"):
			r.rootPackage(p, false)
		case strings.HasPrefix(rel, "bench/"):
			withTests, err := vet.LoadWithTests(m, p.Dir, p.Path)
			if err != nil {
				t.Fatalf("loading %s with its tests: %v", path, err)
			}
			r.rootPackage(withTests, true)
		}
	}
	r.run()

	unreached := r.unreached()
	kept := make(map[string]bool)
	for _, u := range unreached {
		if _, ok := keepUnreached[u.name]; ok {
			kept[u.name] = true
			continue
		}
		t.Errorf("%s: %s is reached from neither cmd/ nor bench/ (%d lines): give it a caller there, delete it, move it into the one example that uses it, or keep-list it with a reason",
			u.pos, u.name, u.lines)
	}
	for name, reason := range keepUnreached {
		if strings.TrimSpace(reason) == "" {
			t.Errorf("keep-list entry %s gives no reason", name)
		}
		if !kept[name] {
			t.Errorf("keep-list entry %s is reached now, or gone: drop it from the list", name)
		}
	}
}

// keepUnwritten lists the exported fields of exported *Options and *Config
// structs under internal/ that no non-test code writes but that stay, each
// with the reason it stays. An entry that becomes written, or no longer
// exists, fails the test.
var keepUnwritten = map[string]string{}

// TestEveryOptionFieldIsWritten keeps settings honest about their callers.
// An exported field of an exported internal/ struct type whose name ends in
// Options or Config is a setting. Unless some non-test file of the module
// (cmd/, examples/, bench/ or internal/ itself) outside the package that
// declares it writes it — as a key of a composite literal, by position in an
// unkeyed one, as the target of an assignment or increment, or by taking its
// address — it has one value in use: make it unexported and let the
// package's own tests set it, delete it, or keep-list it with a reason.
func TestEveryOptionFieldIsWritten(t *testing.T) {
	m := loadModule(t)
	settings := make(map[*types.Var]string)
	for path, p := range m.Pkgs {
		if !strings.HasPrefix(path, m.Path+"/internal/") {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !(strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					settings[f] = p.Types.Name() + "." + name + "." + f.Name()
				}
			}
		}
	}
	written := make(map[*types.Var]bool)
	for _, p := range m.Pkgs {
		// A package filling in its own setting (a default, say) is not a
		// caller choosing a value: only writes from other packages count.
		write := func(v *types.Var) {
			if v.Pkg() != p.Types {
				written[v] = true
			}
		}
		target := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				if s := p.Info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
					write(s.Obj().(*types.Var))
				}
			}
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					st, _ := p.Info.TypeOf(n).Underlying().(*types.Struct)
					for i, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok {
								if v, ok := p.Info.Uses[key].(*types.Var); ok && v.IsField() {
									write(v)
								}
							}
						} else if st != nil && i < st.NumFields() {
							write(st.Field(i))
						}
					}
				case *ast.AssignStmt:
					for _, l := range n.Lhs {
						target(l)
					}
				case *ast.IncDecStmt:
					target(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						target(n.X)
					}
				}
				return true
			})
		}
	}
	var unwritten []string
	for f, name := range settings {
		if !written[f] {
			pos := m.Fset.Position(f.Pos())
			unwritten = append(unwritten, fmt.Sprintf("%s:%d: %s", strings.TrimPrefix(pos.Filename, m.Root+"/"), pos.Line, name))
		}
	}
	sort.Strings(unwritten)
	kept := make(map[string]bool)
	for _, u := range unwritten {
		name := u[strings.LastIndex(u, " ")+1:]
		if _, ok := keepUnwritten[name]; ok {
			kept[name] = true
			continue
		}
		t.Errorf("%s is written by no non-test code: unexport it for the package's tests, delete it, or keep-list it with a reason", u)
	}
	for name, reason := range keepUnwritten {
		if strings.TrimSpace(reason) == "" {
			t.Errorf("keep-list entry %s gives no reason", name)
		}
		if !kept[name] {
			t.Errorf("keep-list entry %s is written now, or gone: drop it from the list", name)
		}
	}
}

// decl is one package-level declaration of the module: the syntax whose
// references become edges once the declared object is reached.
type decl struct {
	info *types.Info
	node ast.Node
}

type reach struct {
	mod     *vet.Module
	decls   map[types.Object]decl
	methods map[string][]*types.Func // module methods by name
	named   []*types.TypeName        // module named types, for stdlib interface checks
	stdIfc  []*types.Interface       // named interfaces of the stdlib packages the module imports
	seen    map[types.Object]bool
	byName  map[string]bool // interface method names already dispatched
	linked  map[*types.Package]bool
	queue   []types.Object
}

func newReach(m *vet.Module) *reach {
	r := &reach{
		mod:     m,
		decls:   make(map[types.Object]decl),
		methods: make(map[string][]*types.Func),
		seen:    make(map[types.Object]bool),
		byName:  make(map[string]bool),
		linked:  make(map[*types.Package]bool),
	}
	std := make(map[*types.Package]bool)
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			r.index(p.Info, f)
		}
		for _, imp := range p.Types.Imports() {
			if !r.inModule(imp) {
				std[imp] = true
			}
		}
	}
	r.stdIfc = append(r.stdIfc, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for sp := range std {
		for _, name := range sp.Scope().Names() {
			tn, ok := sp.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() {
				continue
			}
			if ifc, ok := tn.Type().Underlying().(*types.Interface); ok && ifc.NumMethods() > 0 {
				r.stdIfc = append(r.stdIfc, ifc)
			}
		}
	}
	return r
}

func (r *reach) inModule(p *types.Package) bool {
	return p != nil && (p.Path() == r.mod.Path || strings.HasPrefix(p.Path(), r.mod.Path+"/"))
}

// index records every package-level declaration of one file.
func (r *reach) index(info *types.Info, f *ast.File) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			fn, _ := info.Defs[d.Name].(*types.Func)
			if fn == nil {
				continue
			}
			r.decls[fn] = decl{info, d}
			if d.Recv != nil {
				r.methods[fn.Name()] = append(r.methods[fn.Name()], fn)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if tn, ok := info.Defs[s.Name].(*types.TypeName); ok {
						r.decls[tn] = decl{info, s}
						r.named = append(r.named, tn)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if obj := info.Defs[n]; obj != nil {
							r.decls[obj] = decl{info, s}
						}
					}
				}
			}
		}
	}
}

// rootPackage marks a package's entry points: main and init (and every
// package-level initializer), or, for the benchmark, every declaration.
func (r *reach) rootPackage(p *vet.Package, everything bool) {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, isFunc := d.(*ast.FuncDecl)
			switch {
			case everything:
				r.scan(p.Info, d)
			case isFunc && fd.Recv == nil && (fd.Name.Name == "main" || fd.Name.Name == "init"):
				r.scan(p.Info, d)
			case !isFunc:
				r.scanVars(p.Info, d.(*ast.GenDecl))
			}
		}
	}
	for _, imp := range p.Types.Imports() {
		r.initPackage(imp)
	}
}

// initPackage marks what runs when a module package is linked in: its init
// functions and package-level variable initializers.
func (r *reach) initPackage(tp *types.Package) {
	p := r.mod.Pkgs[tp.Path()]
	if p == nil || r.linked[tp] {
		return
	}
	r.linked[tp] = true
	for _, f := range p.Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.Name == "init" {
					r.scan(p.Info, d)
				}
			case *ast.GenDecl:
				r.scanVars(p.Info, d)
			}
		}
	}
	for _, imp := range tp.Imports() {
		r.initPackage(imp)
	}
}

// scanVars reaches what package-level variable initializers reference; they
// run when the package is linked in. A blank `var _ I = T{}` is a
// compile-time interface assertion, not a use of T, and is skipped.
func (r *reach) scanVars(info *types.Info, d *ast.GenDecl) {
	if d.Tok != token.VAR {
		return
	}
	for _, s := range d.Specs {
		vs := s.(*ast.ValueSpec)
		for _, n := range vs.Names {
			if n.Name != "_" {
				r.scan(info, vs)
				break
			}
		}
	}
}

// scan reaches every module object that node references.
func (r *reach) scan(info *types.Info, node ast.Node) {
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil || !r.inModule(obj.Pkg()) {
			return true
		}
		if fn, ok := obj.(*types.Func); ok {
			fn = fn.Origin()
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				r.dispatch(fn.Name())
				return true
			}
			obj = fn
		}
		r.mark(obj)
		return true
	})
}

// dispatch reaches every module method named name on a reached type: the
// callee of an interface call is any of them. A type reached later picks the
// method up in mark.
func (r *reach) dispatch(name string) {
	if r.byName[name] {
		return
	}
	r.byName[name] = true
	for _, fn := range r.methods[name] {
		if r.seen[recvTypeName(fn)] {
			r.mark(fn)
		}
	}
}

func (r *reach) mark(obj types.Object) {
	if r.seen[obj] {
		return
	}
	r.seen[obj] = true
	r.queue = append(r.queue, obj)
	if tn, ok := obj.(*types.TypeName); ok {
		if n, ok := tn.Type().(*types.Named); ok {
			for i := 0; i < n.NumMethods(); i++ {
				if fn := n.Method(i); r.byName[fn.Name()] {
					r.mark(fn)
				}
			}
		}
	}
}

// run walks the reference graph to a fixed point.
func (r *reach) run() {
	for len(r.queue) > 0 {
		for len(r.queue) > 0 {
			obj := r.queue[len(r.queue)-1]
			r.queue = r.queue[:len(r.queue)-1]
			if d, ok := r.decls[obj]; ok {
				r.scan(d.info, d.node)
			}
		}
		// A reached type handed to the standard library keeps the methods
		// by which it satisfies that library's interfaces.
		for _, tn := range r.named {
			if !r.seen[tn] {
				continue
			}
			for _, ifc := range r.stdIfc {
				t := tn.Type()
				if !types.Implements(t, ifc) && !types.Implements(types.NewPointer(t), ifc) {
					continue
				}
				for i := 0; i < ifc.NumMethods(); i++ {
					obj, _, _ := types.LookupFieldOrMethod(t, true, tn.Pkg(), ifc.Method(i).Name())
					if fn, ok := obj.(*types.Func); ok && r.inModule(fn.Pkg()) {
						r.mark(fn.Origin())
					}
				}
			}
		}
	}
}

type unreachedDecl struct {
	name  string
	pos   string
	lines int
}

// unreached lists the internal/ functions, methods, types and constants the
// walk never hit.
func (r *reach) unreached() []unreachedDecl {
	var out []unreachedDecl
	for obj, d := range r.decls {
		switch obj.(type) {
		case *types.Func, *types.TypeName, *types.Const:
		default:
			continue
		}
		if r.seen[obj] || !strings.HasPrefix(obj.Pkg().Path(), r.mod.Path+"/internal/") ||
			obj.Name() == "init" || obj.Name() == "_" {
			continue
		}
		start := r.mod.Fset.Position(d.node.Pos())
		end := r.mod.Fset.Position(d.node.End())
		out = append(out, unreachedDecl{
			name:  objName(obj),
			pos:   fmt.Sprintf("%s:%d", strings.TrimPrefix(start.Filename, r.mod.Root+"/"), start.Line),
			lines: end.Line - start.Line + 1,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

// recvTypeName returns the named type that declares method fn.
func recvTypeName(fn *types.Func) *types.TypeName {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Obj()
}

// objName renders obj as pkg.Name or, for a method, pkg.(*T).Method.
func objName(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return obj.Pkg().Name() + "." + obj.Name()
	}
	ptr := ""
	if _, ok := fn.Type().(*types.Signature).Recv().Type().(*types.Pointer); ok {
		ptr = "*"
	}
	return fmt.Sprintf("%s.(%s%s).%s", fn.Pkg().Name(), ptr, recvTypeName(fn).Name(), fn.Name())
}
