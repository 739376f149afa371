package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// DeadExport flags exported package-level funcs, methods, types, vars and
// consts of non-main packages that no loaded file references: surface no
// binary can reach. The loader drops test files, so a symbol whose only
// caller is a test is dead too. A method also counts as used when its
// receiver implements an interface declaring a method of that name
// (Backend.Execute, String, Error), since the call goes through the
// interface. Uses are collected once over the whole load (Prepare); a
// load that does not cover every package of the module reports nothing,
// because the missing packages may hold the only caller.
//
// A deliberate survivor (a test oracle, a cross-package test helper)
// carries //pimdl:lint-ignore deadexport <reason> at its declaration.
var DeadExport = &Analyzer{
	Name:    "deadexport",
	Doc:     "exported symbol of a non-main package that no non-test file references",
	Prepare: prepareDeadExport,
	Run:     runDeadExport,
}

func prepareDeadExport(facts *Facts, pkgs []*Package) bool {
	if !coversModule(pkgs) {
		return false
	}
	facts.Referenced = map[types.Object]bool{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				recordReferences(facts.Referenced, pkg.Info, decl)
			}
		}
	}
	facts.IfaceMethods = map[string][]*types.Interface{}
	addIface := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok {
			return
		}
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			facts.IfaceMethods[name] = append(facts.IfaceMethods[name], iface)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !isGeneric(tn.Type()) {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range pkgs {
		visit(pkg.Pkg)
		// Interface literals (func parameters, struct fields) have no
		// package-scope name.
		for e, tv := range pkg.Info.Types {
			if _, ok := e.(*ast.InterfaceType); ok && tv.Type != nil {
				addIface(tv.Type)
			}
		}
	}
	return true
}

// recordReferences marks every object that decl mentions, except the
// objects decl itself declares and a method's receiver type: a type
// referenced only by its own methods, or a func only by its own
// recursion, is still dead.
func recordReferences(refs map[types.Object]bool, info *types.Info, decl ast.Decl) {
	self := map[types.Object]bool{}
	var nodes []ast.Node
	switch d := decl.(type) {
	case *ast.FuncDecl:
		self[info.Defs[d.Name]] = true
		nodes = append(nodes, d.Type)
		if d.Body != nil {
			nodes = append(nodes, d.Body)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				self[info.Defs[s.Name]] = true
				nodes = append(nodes, s)
			case *ast.ValueSpec:
				for _, n := range s.Names {
					self[info.Defs[n]] = true
				}
				nodes = append(nodes, s)
			}
		}
	}
	for _, n := range nodes {
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := origin(info.Uses[id])
			if obj != nil && !self[obj] {
				refs[obj] = true
			}
			return true
		})
	}
}

// origin maps an instantiated generic func or method to its declaration.
func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

func isGeneric(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.TypeParams().Len() > 0
}

// coversModule reports whether pkgs hold every package of the module
// enclosing them, which is what makes "no reference" mean "dead".
func coversModule(pkgs []*Package) bool {
	if len(pkgs) == 0 || pkgs[0].Dir == "" {
		return false
	}
	root, _, err := Module(pkgs[0].Dir)
	if err != nil {
		return false
	}
	all, err := expandPatterns(root, root, []string{"./..."})
	if err != nil {
		return false
	}
	loaded := map[string]bool{}
	for _, p := range pkgs {
		loaded[filepath.Clean(p.Dir)] = true
	}
	for _, d := range all {
		if !loaded[filepath.Clean(d)] {
			return false
		}
	}
	return true
}

func runDeadExport(p *Pass) {
	if p.Pkg.Name() == "main" {
		return
	}
	dead := func(id *ast.Ident) bool {
		return id.IsExported() && !p.Facts.Referenced[p.Info.Defs[id]]
	}
	report := func(id *ast.Ident, kind, name string) {
		p.Reportf(id.Pos(), "exported %s %s is referenced by no non-test file; delete it or give it a caller", kind, name)
	}
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !dead(d.Name) {
					continue
				}
				fn := p.Info.Defs[d.Name].(*types.Func)
				if d.Recv == nil {
					report(d.Name, "func", d.Name.Name)
				} else if !satisfiesInterface(p.Facts, fn) {
					name := d.Name.Name
					if named, ok := receiver(fn).(*types.Named); ok {
						name = named.Obj().Name() + "." + name
					}
					report(d.Name, "method", name)
				}
			case *ast.GenDecl:
				kind := map[token.Token]string{token.TYPE: "type", token.VAR: "var", token.CONST: "const"}[d.Tok]
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if dead(s.Name) {
							report(s.Name, kind, s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if dead(n) {
								report(n, kind, n.Name)
							}
						}
					}
				}
			}
		}
	}
}

// receiver returns a method's receiver type without the pointer.
func receiver(fn *types.Func) types.Type {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		return ptr.Elem()
	}
	return recv
}

// satisfiesInterface reports whether fn's receiver type implements some
// visible interface that declares a method named like fn.
func satisfiesInterface(facts *Facts, fn *types.Func) bool {
	recv := receiver(fn)
	if isGeneric(recv) {
		return false
	}
	for _, iface := range facts.IfaceMethods[fn.Name()] {
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
			return true
		}
	}
	return false
}
