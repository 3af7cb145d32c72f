package cardirect

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"cardirect/internal/experiments"
)

// paperModel is the part of the surface the package exports whatever its
// callers name: the geometry, the relation model, the two algorithms and
// NamedRegion, the input of BatchCDR and PrepareAll.
var paperModel = []string{
	"Point", "Polygon", "Region", "Pt", "Poly", "Rgn", "Box", "BoxRegion",
	"Tile", "Relation", "RelationSet", "PercentMatrix", "TileAreas",
	"TileB", "TileS", "TileSW", "TileW", "TileNW", "TileN", "TileNE", "TileE", "TileSE",
	"B", "S", "SW", "W", "NW", "N", "NE", "E", "SE",
	"Rel", "ParseRelation", "ParseRelationSet", "NewRelationSet",
	"ComputeCDR", "ComputeCDRPct",
	"NamedRegion",
}

// TestFacadeSurface holds the export rule of the package comment in both
// directions: every exported name of cardirect.go is on the paper-model list
// or called as cardirect.X by an example program or a Go block of README.md,
// and every cardirect.X those name is declared.
func TestFacadeSurface(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "cardirect.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				declared[d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					declared[s.Name.Name] = true
				case *ast.ValueSpec:
					for _, n := range s.Names {
						declared[n.Name] = true
					}
				}
			}
		}
	}
	for name := range declared {
		if !token.IsExported(name) {
			delete(declared, name)
		}
	}

	// callers maps each cardirect.X to the first file naming it.
	callers := map[string]string{}
	use := regexp.MustCompile(`\bcardirect\.([A-Z][A-Za-z0-9_]*)`)
	collect := func(where, text string) {
		for _, m := range use.FindAllStringSubmatch(text, -1) {
			if _, ok := callers[m[1]]; !ok {
				callers[m[1]] = where
			}
		}
	}
	examples, err := filepath.Glob("examples/*/*.go")
	if err != nil || len(examples) == 0 {
		t.Fatalf("no example programs found (%v)", err)
	}
	for _, path := range examples {
		collect(path, readDoc(t, path))
	}
	collect("README.md", strings.Join(goBlocks(readDoc(t, "README.md")), "\n"))

	for _, name := range paperModel {
		if !declared[name] {
			t.Errorf("cardirect.go does not declare %s, which the paper-model list keeps", name)
		}
	}
	model := map[string]bool{}
	for _, name := range paperModel {
		model[name] = true
	}
	for name := range declared {
		if _, called := callers[name]; !called && !model[name] {
			t.Errorf("cardirect.go exports %s, which no example, README Go block or the paper-model list names", name)
		}
	}
	for name, where := range callers {
		if !declared[name] {
			t.Errorf("%s names cardirect.%s, which cardirect.go does not declare", where, name)
		}
	}
	t.Logf("cardirect.go exports %d names", len(declared))
}

// TestModuleMapDocumented checks that DESIGN.md §4's module map lists
// exactly the module's package directories (bench/ is a module of its own).
func TestModuleMapDocumented(t *testing.T) {
	section := docSection(t, readDoc(t, "DESIGN.md"), "## 4. Module map")
	listed := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || !strings.HasSuffix(fields[0], "/") {
			continue
		}
		for _, dir := range expandBraces(strings.TrimSuffix(fields[0], "/")) {
			listed[dir] = true
		}
	}
	delete(listed, "bench")
	if !listed["cardirect"] {
		t.Error("DESIGN.md §4 does not list the root package as cardirect/")
	}
	delete(listed, "cardirect")
	listed["."] = true

	packages := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || path == "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			packages[filepath.ToSlash(filepath.Dir(path))] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for dir := range packages {
		if !listed[dir] {
			t.Errorf("package directory %s/ is missing from DESIGN.md §4", dir)
		}
	}
	for dir := range listed {
		if !packages[dir] {
			t.Errorf("DESIGN.md §4 lists %s/, which holds no Go package", dir)
		}
	}
}

// TestExperimentIndexDocumented checks that EXPERIMENTS.md has one section
// and DESIGN.md §3 one row per experiment cdrbench runs, plus the entry for
// the retired E21 and E25 in each, and nothing else.
func TestExperimentIndexDocumented(t *testing.T) {
	want := map[string]bool{}
	for _, id := range experiments.IDs() {
		for _, n := range expandRange(t, id) {
			want[n] = true
		}
	}
	expID := regexp.MustCompile(`\bE\d+\b`)

	sections := map[string]bool{}
	retired := ""
	for _, line := range strings.Split(readDoc(t, "EXPERIMENTS.md"), "\n") {
		head, ok := strings.CutPrefix(line, "## E")
		if !ok {
			continue
		}
		ids, title, _ := strings.Cut("E"+head, " — ")
		if strings.HasPrefix(title, "retired") {
			retired = ids
			continue
		}
		for _, id := range expID.FindAllString(ids, -1) {
			sections[id] = true
		}
	}
	if !strings.HasPrefix(retired, "E21, E25") {
		t.Errorf("EXPERIMENTS.md lost the section on the retired E21 and E25 (found %q)", retired)
	}
	compareIDs(t, "EXPERIMENTS.md sections", sections, want)

	index := docSection(t, readDoc(t, "DESIGN.md"), "## 3. Experiment index")
	rows := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^\| (E\d+) \|`).FindAllStringSubmatch(index, -1) {
		rows[m[1]] = true
	}
	if !strings.Contains(index, "E21 and E25 are retired") {
		t.Error("DESIGN.md §3 lost the note on the retired E21 and E25")
	}
	compareIDs(t, "DESIGN.md §3 rows", rows, want)
}

func compareIDs(t *testing.T, what string, got, want map[string]bool) {
	t.Helper()
	var missing, extra []string
	for id := range want {
		if !got[id] {
			missing = append(missing, id)
		}
	}
	for id := range got {
		if !want[id] {
			extra = append(extra, id)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	if len(missing) > 0 {
		t.Errorf("%s miss experiments %v", what, missing)
	}
	if len(extra) > 0 {
		t.Errorf("%s cover %v, which cdrbench does not run", what, extra)
	}
}

// expandRange turns an experiment id such as "E1-E3" into E1, E2, E3.
func expandRange(t *testing.T, id string) []string {
	t.Helper()
	lo, hi, ranged := strings.Cut(id, "-")
	if !ranged {
		return []string{id}
	}
	a, err1 := strconv.Atoi(strings.TrimPrefix(lo, "E"))
	b, err2 := strconv.Atoi(strings.TrimPrefix(hi, "E"))
	if err1 != nil || err2 != nil || a > b {
		t.Fatalf("experiment id %q is not a range", id)
	}
	var out []string
	for n := a; n <= b; n++ {
		out = append(out, "E"+strconv.Itoa(n))
	}
	return out
}

// expandBraces expands one "a/{b,c}/d" group into a/b/d and a/c/d.
func expandBraces(s string) []string {
	pre, rest, ok := strings.Cut(s, "{")
	if !ok {
		return []string{s}
	}
	alts, post, _ := strings.Cut(rest, "}")
	var out []string
	for _, alt := range strings.Split(alts, ",") {
		out = append(out, pre+alt+post)
	}
	return out
}

// goBlocks returns the bodies of the ```go fenced blocks of a Markdown text.
func goBlocks(md string) []string {
	var blocks []string
	var cur []string
	in := false
	for _, line := range strings.Split(md, "\n") {
		switch {
		case !in && strings.HasPrefix(line, "```go"):
			in, cur = true, nil
		case in && strings.HasPrefix(line, "```"):
			in = false
			blocks = append(blocks, strings.Join(cur, "\n"))
		case in:
			cur = append(cur, line)
		}
	}
	return blocks
}

// docSection returns the text after the line opening with heading, up to the
// next "## " heading.
func docSection(t *testing.T, doc, heading string) string {
	t.Helper()
	_, rest, ok := strings.Cut(doc, "\n"+heading)
	if !ok {
		t.Fatalf("heading %q not found", heading)
	}
	section, _, _ := strings.Cut(rest, "\n## ")
	return section
}

func readDoc(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
