package sweep

// AST-driven registry-coverage gate, mirroring internal/report's
// doc-comment gate: every mechanism kind in the sweep registry must carry
// (a) a differential test pinning it to its naive reference model in
// internal/prefetch, and (b) a per-mechanism benchmark row in the
// repository-root bench_test.go. A new kind added to Kinds() fails this
// test until both exist — new mechanisms can't land untested.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strconv"
	"strings"
	"testing"
)

// TestKindsRegistryConsistent pins Kinds() to the registry table that
// Validate and Build read: every listed kind validates and builds at a
// generic table geometry, and an unlisted kind is rejected.
func TestKindsRegistryConsistent(t *testing.T) {
	seen := map[string]bool{}
	for _, kind := range Kinds() {
		if seen[kind] {
			t.Errorf("Kinds() lists %q twice", kind)
		}
		seen[kind] = true
		m := Mech{Kind: kind, Rows: 64, Ways: 2, Slots: 2}.Normalize()
		if err := m.Validate(); err != nil {
			t.Errorf("kind %q does not validate: %v", kind, err)
			continue
		}
		p := m.Build()
		if kind == "none" {
			if p != nil {
				t.Errorf(`kind "none" built a non-nil mechanism`)
			}
			continue
		}
		if p == nil {
			t.Errorf("kind %q built nil", kind)
			continue
		}
		if m.Label() == "" {
			t.Errorf("kind %q has an empty label", kind)
		}
	}
	if err := (Mech{Kind: "XXX"}).Validate(); err == nil {
		t.Error("Validate accepted an unknown kind")
	}
}

// TestValidateGuardsBuild checks that Validate is a complete guard for
// Build: across every kind and a spread of table shapes (zero, one,
// non-dividing and power-of-two rows and ways; zero and positive slots),
// a configuration Validate accepts never makes Build panic.
func TestValidateGuardsBuild(t *testing.T) {
	for _, kind := range Kinds() {
		for _, rows := range []int{0, 1, 3, 32} {
			for _, ways := range []int{0, 1, 2, 3, 32} {
				for _, slots := range []int{0, 1, 2} {
					m := Mech{Kind: kind, Rows: rows, Ways: ways, Slots: slots}
					if m.Validate() != nil {
						continue
					}
					func() {
						defer func() {
							if r := recover(); r != nil {
								t.Errorf("%+v validates but Build panics: %v", m, r)
							}
						}()
						m.Build()
					}()
				}
			}
		}
	}
}

func TestParseKind(t *testing.T) {
	for in, want := range map[string]string{
		"dp-pc": "DP-PC",
		"DP":    "DP",
		"sp-a":  "SP-A",
		"NONE":  "none",
		"none":  "none",
		"dpx":   "dpx", // unknown: unchanged, for Validate to reject
	} {
		if got := ParseKind(in); got != want {
			t.Errorf("ParseKind(%q) = %q, want %q", in, got, want)
		}
	}
	if err := (Mech{Kind: ParseKind("dpx")}).Validate(); err == nil {
		t.Error("Validate accepted an unknown kind after ParseKind")
	}
}

// differentialTestName maps a registry kind to its required differential
// test function: "DP-PC" -> TestDifferentialDPPC, "none" -> TestDifferentialNone.
func differentialTestName(kind string) string {
	s := strings.ReplaceAll(kind, "-", "")
	if s == "none" {
		s = "None"
	}
	return "TestDifferential" + s
}

// prefetchTestFuncs parses every _test.go file in internal/prefetch (both
// its in-package and external test packages) and returns the declared
// top-level function names.
func prefetchTestFuncs(t *testing.T) map[string]bool {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, "../prefetch", func(fi fs.FileInfo) bool {
		return strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatalf("parsing internal/prefetch test files: %v", err)
	}
	names := map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
					names[fd.Name.Name] = true
				}
			}
		}
	}
	return names
}

// benchMechRows parses the repository-root bench_test.go and returns the
// string literals inside the throughputMechs declaration — the benchmark's
// per-mechanism rows.
func benchMechRows(t *testing.T) map[string]bool {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "../../bench_test.go", nil, 0)
	if err != nil {
		t.Fatalf("parsing bench_test.go: %v", err)
	}
	rows := map[string]bool{}
	found := false
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Name.Name != "throughputMechs" {
			continue
		}
		found = true
		ast.Inspect(fd, func(n ast.Node) bool {
			if bl, ok := n.(*ast.BasicLit); ok && bl.Kind == token.STRING {
				if s, err := strconv.Unquote(bl.Value); err == nil {
					rows[s] = true
				}
			}
			return true
		})
	}
	if !found {
		t.Fatal("bench_test.go no longer declares throughputMechs — update this gate alongside it")
	}
	return rows
}

// TestRegistryCoverage is the gate.
func TestRegistryCoverage(t *testing.T) {
	tests := prefetchTestFuncs(t)
	rows := benchMechRows(t)
	for _, kind := range Kinds() {
		if want := differentialTestName(kind); !tests[want] {
			t.Errorf("registry kind %q has no differential test: add %s to internal/prefetch (see differential_test.go)", kind, want)
		}
		if !rows[kind] {
			t.Errorf("registry kind %q has no benchmark row: add it to throughputMechs in bench_test.go", kind)
		}
	}
}
