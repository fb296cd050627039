package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Deadcode flags exported package-level identifiers (functions, types,
// variables, constants) under internal/ that no non-test code in the
// module references. Test files are never loaded, so an identifier only
// tests use is dead too: the code and its tests go together. A use
// inside the identifier's own declaration (a recursive call, a method
// on the type) does not count. Methods are not checked: an interface
// or a root-API type alias can need them with no direct call.
//
// Whether anything references an identifier is a whole-module question,
// so the analyzer reports only when the module's root package is among
// the loaded ones (./... or ioatsim/...); on a partial package list it
// stays silent rather than flag identifiers used by unloaded packages.
var Deadcode = &Analyzer{
	Name: "deadcode",
	Doc:  "flag exported internal/ identifiers that no non-test code in the module references",
	Run:  runDeadcode,
}

func runDeadcode(pass *Pass) error {
	if !strings.HasPrefix(pass.Pkg.Path, ModulePath+"/internal/") || pass.Index.Pkg(ModulePath) == nil {
		return nil
	}
	refs := pass.Index.references()
	scope := pass.Pkg.Types.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if obj.Exported() && !refs[objKey(obj)] {
			pass.Reportf(obj.Pos(), "%s.%s has no reference from non-test code: delete it, "+
				"or allow it with the reason it stays", pass.Pkg.Types.Name(), name)
		}
	}
	return nil
}

// objKey identifies a package-level object across separately
// type-checked packages: an importer's view of a package holds objects
// distinct from the package's own.
func objKey(obj types.Object) string { return obj.Pkg().Path() + "." + obj.Name() }

// references returns the keys of the package-level objects that loaded
// code uses outside their own declarations, computed once per index.
func (idx *Index) references() map[string]bool {
	if idx.refs != nil {
		return idx.refs
	}
	idx.refs = map[string]bool{}
	for _, pkg := range idx.pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					idx.addRefs(pkg, d, funcOwner(pkg, d))
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						idx.addRefs(pkg, spec, specOwners(pkg, spec))
					}
				}
			}
		}
	}
	return idx.refs
}

// addRefs records every package-level object that node uses, except
// the node's own declared objects (owners).
func (idx *Index) addRefs(pkg *Package, node ast.Node, owners []string) {
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pkg.Info.Uses[id]
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if obj == nil || obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
			return true
		}
		k := objKey(obj)
		for _, o := range owners {
			if o == k {
				return true
			}
		}
		idx.refs[k] = true
		return true
	})
}

// funcOwner is the object a function declaration belongs to: the
// function itself, or a method's receiver type.
func funcOwner(pkg *Package, d *ast.FuncDecl) []string {
	fn, ok := pkg.Info.Defs[d.Name].(*types.Func)
	if !ok {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return []string{objKey(fn)}
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return []string{objKey(named.Obj())}
	}
	return nil
}

// specOwners are the objects a type, var or const spec declares.
func specOwners(pkg *Package, spec ast.Spec) []string {
	var names []*ast.Ident
	switch s := spec.(type) {
	case *ast.TypeSpec:
		names = []*ast.Ident{s.Name}
	case *ast.ValueSpec:
		names = s.Names
	}
	var out []string
	for _, n := range names {
		if obj := pkg.Info.Defs[n]; obj != nil {
			out = append(out, objKey(obj))
		}
	}
	return out
}
