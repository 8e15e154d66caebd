package hpbdc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// configSeams are the exported Config/Options fields that no program file
// sets but that stay on purpose, each with the reason. A key is
// "package.Type.Field"; "package.Type" covers every field of the type.
var configSeams = map[string]string{
	"admission.BreakerConfig.Cooldown":  "breaker tests shorten the cooldown; admission.Sim runs the default",
	"admission.BreakerConfig.Threshold": "breaker tests lower the trip count; admission.Sim runs the default",
	"admission.SimConfig.Breaker":       "TestSimBreakerRoutesAroundBadNode tunes the coordinator breakers",
	"core.Config.MaxRetryBackoff":       "a chaos test caps the retry backoff",
	"core.Config.MaxTaskRetries":        "engine, query and table tests raise the per-partition retry budget",
	"core.Config.RetryBackoff":          "query and table tests turn retry backoff off; chaos tests lengthen it",
	"core.Config.SpeculationMin":        "chaos tests lower the straggler floor",
	"gossip.Config":                     "the package is imported by nothing; seed tests bind it",
	"ha.Config.DisableHardening":        "transcript and gray-failure tests run the vanilla-Raft control",
	"ha.Config.MaxOpTicks":              "transcript and gray-failure tests bound the ticks one proposal may take",
	"hpbdc.Config.ForceSortShuffle":     "public API: the E2 ablation switch, passed on to core.Config",
	"hpbdc.Config.Oversub":              "public API: the simulated topology's core oversubscription",
	"kvstore.Config.VNodes":             "ring tests vary the virtual-node count",
	"ml.Config.StragglerDelay":          "TestSSPStalenessBoundHolds slows one worker",
	"obs.Options.MinStragglerTasks":     "report edge-case tests flag stages of one task",
	"obs.Options.StragglerK":            "report edge-case tests tune the straggler multiple",
	"sched.Config.RemotePenalty":        "TestLocalityPenaltyAppliedToMakespan raises it",
	"sched.Config.Tracer":               "instrumentation tests capture per-task spans",
	"stream.Config.Slide":               "stream and check tests run sliding windows",
	"stream.SessionConfig.Buffer":       "race and lane tests vary the lane buffer",
	"stream.SessionConfig.Gap":          "session-window tests set the gap; only tests run the sessionizer",
}

// TestConfigFieldsHaveCallers fails when an exported field of a struct
// type named *Config or *Options is set by no program file of the module
// or of bench/: no composite-literal key names it and no assignment
// stores to it outside the file that declares it. Such a field is a knob
// nobody turns; make it a constant, or list it in configSeams with the
// reason it stays. A key of a literal whose type is written out matches
// that type only; keys of elided-type literals and assignments match any
// field of that name.
func TestConfigFieldsHaveCallers(t *testing.T) {
	type field struct{ pkg, typ, name string }
	type srcFile struct {
		path, pkg string
		f         *ast.File
	}
	fset := token.NewFileSet()
	var files []srcFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		// The root module is "repro" and bench/ is "repro/bench", so a
		// directory's import path is the module name joined with it.
		files = append(files, srcFile{p, path.Join("repro", filepath.ToSlash(filepath.Dir(p))), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	declared := map[field]srcFile{}
	for _, sf := range files {
		for _, decl := range sf.f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				name := ts.Name.Name
				if !ok || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
					continue
				}
				for _, fl := range st.Fields.List {
					for _, id := range fl.Names {
						if id.IsExported() {
							declared[field{sf.pkg, name, id.Name}] = sf
						}
					}
				}
			}
		}
	}

	typed := map[field]bool{}         // keys of literals of a named type
	elided := map[string]bool{}       // keys of literals with the type left out
	assigned := map[string][]string{} // field name -> files that store to it
	for _, sf := range files {
		imports := map[string]string{}
		for _, is := range sf.f.Imports {
			p, _ := strconv.Unquote(is.Path.Value)
			name := path.Base(p)
			if is.Name != nil {
				name = is.Name.Name
			}
			imports[name] = p
		}
		ast.Inspect(sf.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				pkg, typ := "", ""
				switch ty := n.Type.(type) {
				case *ast.Ident:
					pkg, typ = sf.pkg, ty.Name
				case *ast.SelectorExpr:
					if x, ok := ty.X.(*ast.Ident); ok {
						pkg, typ = imports[x.Name], ty.Sel.Name
					}
				}
				for _, el := range n.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					key, ok := kv.Key.(*ast.Ident)
					switch {
					case !ok:
					case n.Type == nil:
						elided[key.Name] = true
					case typ != "":
						typed[field{pkg, typ, key.Name}] = true
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						assigned[sel.Sel.Name] = append(assigned[sel.Sel.Name], sf.path)
					}
				}
			}
			return true
		})
	}

	seamUsed := map[string]bool{}
	var unset []string
	for fd, sf := range declared {
		if typed[fd] || elided[fd.name] || slices.ContainsFunc(assigned[fd.name], func(p string) bool { return p != sf.path }) {
			continue
		}
		typeKey := sf.f.Name.Name + "." + fd.typ
		key := typeKey + "." + fd.name
		if _, ok := configSeams[key]; ok {
			seamUsed[key] = true
		} else if _, ok := configSeams[typeKey]; ok {
			seamUsed[typeKey] = true
		} else {
			unset = append(unset, key+" ("+sf.path+")")
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("%s: no caller sets it; make it a constant or list it in configSeams", u)
	}
	for key := range configSeams {
		if !seamUsed[key] {
			t.Errorf("configSeams lists %s, which is set by a caller or no longer exists", key)
		}
	}
}
