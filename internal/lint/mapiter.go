package lint

// mapiter: flag `range` over a map whose body feeds an ordered result —
// appends to a slice declared outside the loop, accumulates into an outer
// float or string, sends on a channel, calls an ordered writer, or adds a
// variable or constraint to a MILP model (their order is the model's
// column and row order, which decides among tied optima) — unless
// every appended slice is sorted later in the same function. Go randomizes
// map iteration order, so any of these silently breaks the byte-identical
// explanation guarantees the differential tests enforce. (Integer and
// boolean accumulation is exact and commutative, so it is allowed; float
// addition is not associative, so it is not.)

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapIterAnalyzer returns the mapiter analyzer.
func MapIterAnalyzer() *Analyzer {
	a := &Analyzer{
		Name: "mapiter",
		Doc:  "range over a map feeding an ordered result without a subsequent sort",
	}
	a.Run = func(pass *Pass) {
		for _, file := range pass.Pkg.Files {
			enclosingFuncs(pass.Pkg, file, func(fd *ast.FuncDecl, body *ast.BlockStmt) {
				checkMapIterFunc(pass, body)
			})
		}
	}
	return a
}

func checkMapIterFunc(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if t := pass.TypeOf(rs.X); t == nil || !isMapType(t) {
			return true
		}
		checkMapRange(pass, body, rs)
		return true
	})
}

func isMapType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// appendSite is one `dst = append(dst, ...)` into an outer slice.
type appendSite struct {
	pos  token.Pos
	expr string // display form of the destination, e.g. "out.Prov"
	root types.Object
}

func checkMapRange(pass *Pass, funcBody *ast.BlockStmt, rs *ast.RangeStmt) {
	var appends []appendSite
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			for _, rhs := range v.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isBuiltin(pass.Pkg, call, "append") || len(call.Args) == 0 {
					continue
				}
				dst := call.Args[0]
				root := rootIdent(dst)
				if root == nil {
					continue
				}
				obj := pass.ObjectOf(root)
				if obj == nil || declaredWithin(obj, rs) {
					continue
				}
				appends = append(appends, appendSite{
					pos:  v.Pos(),
					expr: types.ExprString(dst),
					root: obj,
				})
			}
			if isOrderSensitiveAccum(pass, v, rs) {
				pass.Reportf(v.Pos(), "accumulation into %s inside range over map is order-sensitive (map iteration order is random); iterate a sorted key slice instead", types.ExprString(v.Lhs[0]))
			}
		case *ast.SendStmt:
			pass.Reportf(v.Pos(), "send on %s inside range over map emits in random order; iterate a sorted key slice instead", types.ExprString(v.Chan))
		case *ast.CallExpr:
			if name, ok := orderedWriterCall(pass, v); ok {
				pass.Reportf(v.Pos(), "call to %s inside range over map emits in random order; iterate a sorted key slice instead", name)
			}
			if name, ok := modelBuildCall(pass, v); ok {
				pass.Reportf(v.Pos(), "call to %s inside range over map orders the model's columns or rows at random, so tied optima differ run to run; iterate a sorted key slice instead", name)
			}
		}
		return true
	})
	for _, site := range appends {
		if sortedAfter(pass, funcBody, rs, site) {
			continue
		}
		pass.Reportf(site.pos, "append to %s inside range over map without a subsequent sort makes its order depend on random map iteration; sort it afterwards or iterate a sorted key slice", site.expr)
	}
}

// declaredWithin reports whether obj's declaration lies inside the range
// statement (loop-local accumulators reset each iteration are harmless).
func declaredWithin(obj types.Object, rs *ast.RangeStmt) bool {
	return obj.Pos() >= rs.Pos() && obj.Pos() <= rs.End()
}

// isOrderSensitiveAccum reports op-assignments into an outer float or
// string: `total += x` reassociates float addition per iteration order, and
// string concatenation is order-visible verbatim.
func isOrderSensitiveAccum(pass *Pass, a *ast.AssignStmt, rs *ast.RangeStmt) bool {
	switch a.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
	default:
		return false
	}
	if len(a.Lhs) != 1 {
		return false
	}
	root := rootIdent(a.Lhs[0])
	if root == nil {
		return false
	}
	obj := pass.ObjectOf(root)
	if obj == nil || declaredWithin(obj, rs) {
		return false
	}
	t := pass.TypeOf(a.Lhs[0])
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Info()&types.IsFloat != 0 || b.Info()&types.IsString != 0
}

// orderedWriterCall reports calls that emit bytes in call order: fmt's
// printers and io-style Write* methods.
func orderedWriterCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(pass.Pkg, call)
	if fn == nil {
		return "", false
	}
	name := fn.Name()
	if pkg := fn.Pkg(); pkg != nil && pkg.Path() == "fmt" {
		switch {
		case name == "Print", name == "Println", name == "Printf",
			name == "Fprint", name == "Fprintln", name == "Fprintf":
			return "fmt." + name, true
		}
		return "", false
	}
	if fn.Type().(*types.Signature).Recv() == nil {
		return "", false
	}
	switch name {
	case "Write", "WriteString", "WriteByte", "WriteRune":
		return name, true
	}
	return "", false
}

// modelBuildCall reports calls to (*milp.Model).AddVar and AddConstr: the
// MILP package is recognized by its import path's last two elements
// (internal/milp).
func modelBuildCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(pass.Pkg, call)
	if fn == nil || (fn.Name() != "AddVar" && fn.Name() != "AddConstr") {
		return "", false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return "", false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Model" || named.Obj().Pkg() == nil {
		return "", false
	}
	if path := named.Obj().Pkg().Path(); path != "internal/milp" && !strings.HasSuffix(path, "/internal/milp") {
		return "", false
	}
	return "(*milp.Model)." + fn.Name(), true
}

// sortedAfter reports whether a sort.* / slices.Sort* call over the same
// destination expression appears after the range loop in the function body.
func sortedAfter(pass *Pass, funcBody *ast.BlockStmt, rs *ast.RangeStmt, site appendSite) bool {
	found := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		fn := calleeFunc(pass.Pkg, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if types.ExprString(ast.Unparen(arg)) == site.expr {
				found = true
				return false
			}
			if root := rootIdent(arg); root != nil && pass.ObjectOf(root) == site.root {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
