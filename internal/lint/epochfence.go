package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// EpochFence enforces the reply-fencing contract (DESIGN.md §9, §13):
// a function that acts on a cross-member reply or peer message must
// compare the message's fence field — membership epoch, sender
// incarnation, or transfer id — before trusting its payload. A stale
// epoch's reply smuggled into a rollup, a dead incarnation's heartbeat
// refreshing a lease, and a superseded transfer's chunk spliced into a
// backlog were each real bugs fixed by hand (PRs 5, 7, 9).
//
// # Contract
//
// A struct type is *fenced* when either
//
//   - its doc comment carries `//otp:fence <Field>`, naming the fence
//     field explicitly (JoinResp, Heartbeat, transport.frame, ...), or
//   - its name matches the wire-reply convention — `Msg*` or `*Reply`
//     — and it declares an Epoch, Inc or Incarnation field.
//
// A function *consumes* a fenced type when it reads any non-fence
// field of a value of that type (constructing or forwarding one is not
// consumption). Every consumer must contain fence evidence — a
// comparison mentioning the fence field, by selector on the fenced
// type or by (case-insensitive) name — in its own body or in a
// same-package function it calls, transitively.
//
// A consumer whose fence genuinely lives elsewhere (a router that only
// demultiplexes, a helper fed exclusively with already-fenced values)
// is annotated `//otp:fenced <justification>` in its doc comment; the
// justification is required.
var EpochFence = &Analyzer{
	Name: "epochfence",
	Doc:  "reply and peer-message consumers must compare the message's epoch/incarnation/transfer fence before acting",
	Run:  runEpochFence,
}

// defaultFenceFields are recognized on implicitly fenced types.
var defaultFenceFields = []string{"Epoch", "Inc", "Incarnation"}

// fencedType is one type in the contract.
type fencedType struct {
	named *types.Named
	field string
}

func runEpochFence(pass *Pass) error {
	fenced := fencedTypes(pass)
	if len(fenced) == 0 {
		return nil
	}
	decls := funcDecls(pass)
	graph := callGraph(pass, decls)

	for fn, decl := range decls {
		if decl.Body == nil || isTestFile(pass.Fset, decl.Pos()) {
			continue
		}
		consumed := consumedTypes(pass, decl, fenced)
		if len(consumed) == 0 {
			continue
		}
		just, annotated := docHasDirective(decl.Doc, "//otp:fenced")
		if annotated {
			if just == "" {
				pass.Reportf(decl.Pos(), "//otp:fenced requires a justification (//otp:fenced <why the fence holds elsewhere>)")
			}
			continue
		}
		for _, ft := range consumed {
			if !fenceEvidence(pass, fn, ft, decls, graph) {
				pass.Reportf(decl.Pos(), "%s consumes %s without comparing its %s fence: a stale-%s message must be dropped before acting (or annotate //otp:fenced <why>)",
					fn.Name(), ft.named.Obj().Name(), ft.field, strings.ToLower(ft.field))
			}
		}
	}
	return nil
}

// fencedTypes collects the package's fenced struct types.
func fencedTypes(pass *Pass) []fencedType {
	var out []fencedType
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				obj, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
				if !ok {
					continue
				}
				named := namedOf(obj.Type())
				if named == nil {
					continue
				}
				st, ok := named.Underlying().(*types.Struct)
				if !ok {
					continue
				}
				// Explicit contract: the directive may sit on the TypeSpec
				// (grouped declarations) or on the GenDecl.
				doc := ts.Doc
				if doc == nil {
					doc = gd.Doc
				}
				if field, ok := docHasDirective(doc, "//otp:fence"); ok {
					if field == "" || fieldIndex(st, field) < 0 {
						pass.Reportf(ts.Pos(), "//otp:fence must name a field of %s", obj.Name())
						continue
					}
					out = append(out, fencedType{named: named, field: field})
					continue
				}
				// Implicit contract: wire-reply naming convention.
				name := obj.Name()
				if !strings.HasPrefix(name, "Msg") && !strings.HasSuffix(name, "Reply") {
					continue
				}
				for _, f := range defaultFenceFields {
					if fieldIndex(st, f) >= 0 {
						out = append(out, fencedType{named: named, field: f})
						break
					}
				}
			}
		}
	}
	return out
}

func fieldIndex(st *types.Struct, name string) int {
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == name {
			return i
		}
	}
	return -1
}

// consumedTypes reports which fenced types decl reads a non-fence
// field of. Writes (assignment targets) and fence-field reads do not
// count: building a message or inspecting only its fence is not
// consumption.
func consumedTypes(pass *Pass, decl *ast.FuncDecl, fenced []fencedType) []fencedType {
	byNamed := make(map[*types.Named]fencedType, len(fenced))
	for _, ft := range fenced {
		byNamed[ft.named] = ft
	}
	writes := writeTargets(decl)
	seen := make(map[*types.Named]bool)
	var out []fencedType
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s, ok := pass.TypesInfo.Selections[sel]
		if !ok || s.Kind() != types.FieldVal {
			return true
		}
		named := namedOf(s.Recv())
		if named == nil {
			return true
		}
		ft, isFenced := byNamed[named]
		if !isFenced || seen[named] {
			return true
		}
		if sel.Sel.Name == ft.field || writes[sel] {
			return true
		}
		seen[named] = true
		out = append(out, ft)
		return true
	})
	return out
}

// writeTargets marks selector expressions that are pure assignment
// targets in decl (x.F = v, x.F += v, x.F++).
func writeTargets(decl *ast.FuncDecl) map[*ast.SelectorExpr]bool {
	out := make(map[*ast.SelectorExpr]bool)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
				for _, lhs := range n.Lhs {
					if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
						out[sel] = true
					}
				}
			}
			// Compound assignments (+=) read as well as write: not pure.
		case *ast.IncDecStmt:
			if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
				out[sel] = true
			}
		}
		return true
	})
	return out
}

// fenceEvidence reports whether fn, or any same-package function
// reachable from it, contains a comparison that mentions ft's fence
// field.
func fenceEvidence(pass *Pass, fn *types.Func, ft fencedType, decls map[*types.Func]*ast.FuncDecl, graph map[*types.Func][]*types.Func) bool {
	for reached := range reachable([]*types.Func{fn}, graph) {
		decl := decls[reached]
		if decl == nil || decl.Body == nil {
			continue
		}
		if bodyHasFenceCompare(pass, decl.Body, ft) {
			return true
		}
	}
	return false
}

func bodyHasFenceCompare(pass *Pass, body *ast.BlockStmt, ft fencedType) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		var x, y ast.Expr
		switch n := n.(type) {
		case *ast.BinaryExpr:
			switch n.Op {
			case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
				x, y = n.X, n.Y
			default:
				return true
			}
		case *ast.SwitchStmt:
			// switch m.Epoch { ... } compares the tag against each case.
			if n.Tag == nil {
				return true
			}
			x, y = n.Tag, nil
		default:
			return true
		}
		if mentionsFence(pass, x, ft) || (y != nil && mentionsFence(pass, y, ft)) {
			found = true
			return false
		}
		return true
	})
	return found
}

// mentionsFence reports whether the expression subtree contains the
// fence field — by selector on the fenced type, or by an identifier or
// selector whose name matches it case-insensitively (the field's value
// is routinely extracted into a local before the compare).
func mentionsFence(pass *Pass, e ast.Expr, ft fencedType) bool {
	if e == nil {
		return false
	}
	want := strings.ToLower(ft.field)
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if s, ok := pass.TypesInfo.Selections[n]; ok && s.Kind() == types.FieldVal &&
				namedOf(s.Recv()) == ft.named && n.Sel.Name == ft.field {
				found = true
				return false
			}
			if nameMatchesFence(n.Sel.Name, want) {
				found = true
				return false
			}
		case *ast.Ident:
			if nameMatchesFence(n.Name, want) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// nameMatchesFence matches identifiers that carry a fence value under
// conventional naming: the field name itself, or prefixed by a role
// ("maxEpoch", "lastInc", "ckXfer").
func nameMatchesFence(name, want string) bool {
	l := strings.ToLower(name)
	return l == want || strings.HasSuffix(l, want)
}
