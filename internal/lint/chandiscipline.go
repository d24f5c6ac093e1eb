package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// NewChandiscipline returns the analyzer that keeps a send from blocking
// for an unbounded time unnoticed: a send whose channel is not provably
// buffered must be select-with-default, and a hot path drops rather than
// blocks, as the broker's session fan-out does.
//
//   - A send (bare, or inside a select without a default case) on a channel
//     whose visible make sites are unbuffered is flagged: it blocks until a
//     receiver arrives.
//   - The same send on a channel with no visible make site (a parameter, a
//     channel received from elsewhere) is flagged too: boundedness cannot
//     be proven, so the code must either own the channel or guard the send.
//   - Inside a //sensolint:hotpath function every send must be
//     select-with-default, buffered or not: a full buffer still blocks, and
//     the hot path's contract is to drop and count, never to stall.
//
// Make sites are resolved per package by attributing make(chan ...) calls to
// the variable or struct field they initialize; constant capacities are
// classified exactly and dynamic capacities count as buffered. A field of
// an instantiated generic type resolves to the field it was instantiated
// from, so a make site in Pipeline[T] vouches for a send in Pipeline[T].
func NewChandiscipline() *Analyzer {
	return &Analyzer{
		Name: "chandiscipline",
		Doc:  "require sends on unbuffered or unproven channels to be select-with-default",
		Run:  runChandiscipline,
	}
}

// chanOrigin accumulates what the package reveals about one channel
// variable or field.
type chanOrigin struct {
	unbuffered bool // some make site has capacity 0
	buffered   bool // some make site has capacity > 0 (or dynamic)
}

func runChandiscipline(pkg *Package) []Diagnostic {
	origins := collectChanOrigins(pkg)
	var out []Diagnostic
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			hot := isHotpathFunc(fd)

			// First pass: classify sends appearing as select communications.
			guarded := map[*ast.SendStmt]bool{} // true: select has default
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectStmt)
				if !ok {
					return true
				}
				hasDefault := false
				for _, c := range sel.Body.List {
					if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
						hasDefault = true
					}
				}
				for _, c := range sel.Body.List {
					cc, ok := c.(*ast.CommClause)
					if !ok {
						continue
					}
					if send, ok := cc.Comm.(*ast.SendStmt); ok {
						guarded[send] = hasDefault
					}
				}
				return true
			})

			ast.Inspect(fd.Body, func(n ast.Node) bool {
				send, ok := n.(*ast.SendStmt)
				if !ok {
					return true
				}
				if hasDefault, inSelect := guarded[send]; inSelect && hasDefault {
					return true
				}
				name := types.ExprString(send.Chan)
				pos := pkg.Fset.Position(send.Arrow)
				if hot {
					out = append(out, Diagnostic{
						Pos:  pos,
						Rule: "chandiscipline",
						Message: "send on " + name + " inside a //sensolint:hotpath function must be " +
							"select-with-default: even a buffered channel blocks when full",
					})
					return true
				}
				switch o := origins[chanObject(pkg, send.Chan)]; {
				case o == nil:
					out = append(out, Diagnostic{
						Pos:  pos,
						Rule: "chandiscipline",
						Message: "send on " + name + " whose capacity cannot be proven from this package; " +
							"guard it with select-with-default or make the channel's buffering visible",
					})
				case o.unbuffered:
					out = append(out, Diagnostic{
						Pos:  pos,
						Rule: "chandiscipline",
						Message: "send on unbuffered channel " + name + " outside select-with-default " +
							"blocks until a receiver is ready; buffer the channel or guard the send",
					})
				}
				return true
			})
		}
	}
	return out
}

// collectChanOrigins attributes every make(chan ...) call in the package to
// the variable or struct field it initializes.
func collectChanOrigins(pkg *Package) map[types.Object]*chanOrigin {
	origins := make(map[types.Object]*chanOrigin)
	record := func(dst ast.Expr, src ast.Expr) {
		unbuffered, ok := makeChanCap(pkg, src)
		if !ok {
			return
		}
		var obj types.Object
		switch dst := ast.Unparen(dst).(type) {
		case *ast.Ident:
			obj = pkg.Info.Defs[dst]
			if obj == nil {
				obj = pkg.Info.Uses[dst]
			}
		case *ast.SelectorExpr:
			obj = pkg.Info.Uses[dst.Sel]
		}
		if obj == nil {
			return
		}
		obj = genericOrigin(obj)
		o := origins[obj]
		if o == nil {
			o = &chanOrigin{}
			origins[obj] = o
		}
		if unbuffered {
			o.unbuffered = true
		} else {
			o.buffered = true
		}
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i := range n.Rhs {
						record(n.Lhs[i], n.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) == len(n.Values) {
					for i := range n.Values {
						record(n.Names[i], n.Values[i])
					}
				}
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						record(kv.Key, kv.Value)
					}
				}
			}
			return true
		})
	}
	return origins
}

// makeChanCap reports whether e is a make of a channel and, if so, whether
// the capacity is (constant) zero. Dynamic capacities count as buffered:
// they are sized deliberately, and zero would be a runtime choice the
// analyzer cannot see.
func makeChanCap(pkg *Package, e ast.Expr) (unbuffered, isMakeChan bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false, false
	}
	fun, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fun.Name != "make" {
		return false, false
	}
	if _, ok := pkg.Info.Uses[fun].(*types.Builtin); !ok {
		return false, false
	}
	if len(call.Args) == 0 {
		return false, false
	}
	if t := pkg.Info.TypeOf(call.Args[0]); t == nil {
		return false, false
	} else if _, ok := t.Underlying().(*types.Chan); !ok {
		return false, false
	}
	if len(call.Args) < 2 {
		return true, true
	}
	tv, ok := pkg.Info.Types[call.Args[1]]
	if ok && tv.Value != nil {
		if n, exact := constant.Int64Val(constant.ToInt(tv.Value)); exact {
			return n == 0, true
		}
	}
	return false, true
}

// chanObject resolves the channel expression of a send to the object its
// make sites were attributed to, or nil.
func chanObject(pkg *Package, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return genericOrigin(pkg.Info.Uses[e])
	case *ast.SelectorExpr:
		return genericOrigin(pkg.Info.Uses[e.Sel])
	}
	return nil
}

// genericOrigin maps a variable or field of an instantiated generic type
// to its declaration in the generic type, where its make sites are filed.
func genericOrigin(obj types.Object) types.Object {
	if v, ok := obj.(*types.Var); ok {
		return v.Origin()
	}
	return obj
}
