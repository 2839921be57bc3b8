package sbgp_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

// reexportedValues lists the sbgp.go names that no exported signature of
// this package mentions and that are re-exported all the same: the
// constants, variables and constructors without which a caller cannot
// produce a value of a type the signatures do mention — and the one
// store type a coordinator needs for the layout JobShardPlan hands it.
// Every other name in sbgp.go must earn its place from a signature.
var reexportedValues = map[string]string{
	"NoAS": "the attacker Run and RunDeltaSeries take for normal conditions",

	"Sec1st":    "Model value",
	"Sec2nd":    "Model value",
	"Sec3rd":    "Model value",
	"NumModels": "sizes per-Model arrays",
	"Models":    "the Model values in order",

	"StandardLP": "LocalPref value",
	"LP2":        "LocalPref value",

	"OneHopHijack": "Attack value",
	"NoAttack":     "Attack value",
	"PathPadding":  "Attack value",
	"OriginSpoof":  "Attack value",
	"ParseAttack":  "Attack from its JobSpec.Attack name",

	"IncrementalAuto": "IncrementalMode value",
	"IncrementalOff":  "IncrementalMode value",

	"NewEnginePool": "constructs JobEvalOptions.Pool",

	"CheckpointWriter":     "the shard store a ShardLayout is ingested into (internal/dist, bench/)",
	"OpenCheckpointWriter": "constructs it",
}

// maxReexports bounds sbgp.go: the export rule's count with a little
// room for a new signature, far below a mirror of the internal packages.
const maxReexports = 45

// TestReexportsFollowTheExportRule holds sbgp.go to its rule so the alias
// mirror cannot regrow unnoticed: every identifier it declares is either
// mentioned by an exported signature the root package itself defines —
// a function or method's parameters and results, an exported type's
// exported fields — or is on the reexportedValues list above.
func TestReexportsFollowTheExportRule(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files[name] = f
	}

	var declared []string
	mentioned := map[string]bool{}
	mention := func(n ast.Node) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				mentioned[id.Name] = true
			}
			return true
		})
	}
	for name, f := range files {
		for _, d := range f.Decls {
			if name == "sbgp.go" {
				switch d := d.(type) {
				case *ast.FuncDecl:
					declared = append(declared, d.Name.Name)
				case *ast.GenDecl:
					for _, sp := range d.Specs {
						switch sp := sp.(type) {
						case *ast.TypeSpec:
							declared = append(declared, sp.Name.Name)
						case *ast.ValueSpec:
							for _, id := range sp.Names {
								declared = append(declared, id.Name)
							}
						}
					}
				}
				continue
			}
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || (d.Recv != nil && !exportedReceiver(d.Recv)) {
					continue
				}
				mention(d.Type)
			case *ast.GenDecl:
				for _, sp := range d.Specs {
					ts, ok := sp.(*ast.TypeSpec)
					if !ok || !ts.Name.IsExported() {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						mention(ts.Type)
						continue
					}
					for _, field := range st.Fields.List {
						for _, id := range field.Names {
							if id.IsExported() {
								mention(field.Type)
							}
						}
					}
				}
			}
		}
	}

	if len(declared) == 0 {
		t.Fatal("sbgp.go declares nothing; is the test running in the package directory?")
	}
	if len(declared) > maxReexports {
		t.Errorf("sbgp.go declares %d identifiers, more than %d", len(declared), maxReexports)
	}
	isDeclared := map[string]bool{}
	for _, name := range declared {
		isDeclared[name] = true
		if !mentioned[name] && reexportedValues[name] == "" {
			t.Errorf("sbgp.go re-exports %s, which no exported signature of this package mentions: call it in its defining internal package", name)
		}
	}
	for name := range reexportedValues {
		if !isDeclared[name] {
			t.Errorf("reexportedValues lists %s, which sbgp.go does not declare", name)
		}
	}
}

// exportedReceiver reports whether a method's receiver type is exported.
func exportedReceiver(recv *ast.FieldList) bool {
	t := recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	id, ok := t.(*ast.Ident)
	return ok && id.IsExported()
}
