package cardirect

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
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

// unlinkedAllowed names the functions of the module that no program links,
// each with the reason it stays in production code: the tests of more than
// one package call it, so it cannot move into one package's tests.
var unlinkedAllowed = map[string]string{
	"cardirect/internal/config.(*Image).RegionIDs":    "the document's ids in order, read by the tests of config and serve",
	"cardirect/internal/core.(*RelationStore).Names":  "the held names, read by the tests of core, config and serve",
	"cardirect/internal/core.PercentMatrix.Sum":       "the matrices-sum-to-100 check of the root and core tests",
	"cardirect/internal/geom.Seg":                     "builds the segments of core's Fig. 5 transcription and grid tests",
	"cardirect/internal/geom.Segment.CrossVertical":   "the edge splitting of core's Fig. 5 transcription, the kernels' reference",
	"cardirect/internal/geom.Segment.CrossHorizontal": "the edge splitting of core's Fig. 5 transcription, the kernels' reference",
	"cardirect/internal/geom.Segment.At":              "the edge splitting of core's Fig. 5 transcription, the kernels' reference",
	"cardirect/internal/geom.Segment.AtOnVertical":    "the edge splitting of core's Fig. 5 transcription, the kernels' reference",
	"cardirect/internal/geom.Segment.AtOnHorizontal":  "the edge splitting of core's Fig. 5 transcription, the kernels' reference",
	"cardirect/internal/geom.Segment.Mid":             "the midpoint rule of core's Fig. 5 transcription, the kernels' reference",
	"cardirect/internal/geom.Point.Mid":               "Segment.Mid's arithmetic, also called by core's ablation tests",
	"cardirect/internal/geom.Region.Clone":            "a fixture copy in the tests of geom and core",
	"cardirect/internal/geom.Region.Translate":        "a fixture transform in the tests of geom, core, baseline, query and serve",
	"cardirect/internal/geom.Region.Scale":            "a fixture transform in the tests of geom and core",
	"cardirect/internal/geom.Polygon.Clone":           "the per-ring step of Region.Clone",
	"cardirect/internal/geom.Polygon.Translate":       "the per-ring step of Region.Translate",
	"cardirect/internal/geom.Polygon.Scale":           "the per-ring step of Region.Scale",
	"cardirect/internal/geom.Region.ValidateStrict":   "the strict REG* check the tests of geom, core, config and workload hold fixtures to",
	"cardirect/internal/geom.polygonsProperlyOverlap": "the pairwise step of Region.ValidateStrict",
	"cardirect/internal/geom.interiorWitness":         "the containment probe of Region.ValidateStrict",
}

// harnesses are the two programs that measure the system rather than run it:
// the experiment printer and the bench/ load harness. The other eight (the
// CLI, the daemon, the generator and the five examples) are a user's.
var harnesses = map[string]bool{"cdrbench": true, "bench": true}

// harnessOnly names the functions declared outside internal/experiments that
// a harness links and no user's program does, grouped by the reason each
// stays where it is: the ROADMAP item that will move or delete it, or the
// tests that share it.
var harnessOnly = map[string][]string{
	"ROADMAP item 1: bench/ calls these internals directly, so they stay until item 1(a) drops or reroutes the call": {
		"cardirect/internal/config.(*Tracked).WithMaterialized",
		"cardirect/internal/core.(*RelationStore).Pairs",
		"cardirect/internal/core.(*RelationStore).PctPairs",
		"cardirect/internal/core.Relate",
		"cardirect/internal/core.RelatePct",
		"cardirect/internal/index.NewLive",
		"cardirect/internal/index.(*Live).Add",
		"cardirect/internal/index.(*Live).SetGeometry",
		"cardirect/internal/persist.(*Store).AddRegion",
		"cardirect/internal/persist.(*Store).RemoveRegion",
		"cardirect/internal/persist.(*Store).RenameRegion",
		"cardirect/internal/persist.(*Store).SetRegionGeometry",
		"cardirect/internal/persist.EncodeSnapshot",
		"cardirect/internal/replica.(*Primary).AddRegion",
		"cardirect/internal/replica.(*Primary).RemoveRegion",
		"cardirect/internal/replica.(*Primary).RenameRegion",
		"cardirect/internal/replica.(*Primary).SetRegionGeometry",
		"cardirect/internal/query.(*Evaluator).SetPlanCache",
		"cardirect/internal/query.(*Evaluator).UseIndex",
		"cardirect/internal/query.(*Evaluator).UseStore",
		"cardirect/internal/wal.(*Writer).Append",
		"cardirect/internal/wal.(*Writer).AppendBatch",
	},
	"ROADMAP item 8: the huge-world tier, which E23 and bench/ run and item 8 joins to the store": {
		"cardirect/internal/core.PrepareLoDWorld",
		"cardirect/internal/core.(*LoDWorld).BatchRows",
		"cardirect/internal/core.(*LoDWorld).Len",
		"cardirect/internal/core.(*LoDWorld).checkIndex",
		"cardirect/internal/core.relateLoD",
		"cardirect/internal/core.NewCoarseIndex",
		"cardirect/internal/core.(*CoarseIndex).cellX",
		"cardirect/internal/core.(*CoarseIndex).cellY",
		"cardirect/internal/core.b2i",
		"cardirect/internal/core.(*stripIndex).build",
		"cardirect/internal/core.(*stripIndex).collect",
		"cardirect/internal/core.(*stripIndex).relateStrip",
		"cardirect/internal/core.(*stripIndex).addCenterTileStrip",
		"cardirect/internal/core.buildIntervalBuckets",
		"cardirect/internal/core.bucketSpan",
	},
	"a reference the experiments share with the tests of other packages, which cannot import internal/experiments without a cycle": {
		"cardirect/internal/core.ComputeCDRStats",           // E1–E3, E8, E15; the root and core tests
		"cardirect/internal/core.AllRelations",              // E10; the root, core, index and reason tests
		"cardirect/internal/core.TileAreas.Percent",         // the clipping comparator; the core tests
		"cardirect/internal/core.TileAreas.Relation",        // the clipping comparator; the root and core tests
		"cardirect/internal/core.PercentMatrix.Relation",    // bench/; the core tests
		"cardirect/internal/core.PercentMatrix.ApproxEqual", // bench/; the core and query tests
		"cardirect/internal/query.(*Evaluator).SetPlanner",  // E22's written order; the query and serve tests
		"cardirect/internal/geom.Polygon.Centroid",          // the cone model; geom's interiorWitness
	},
	"ROADMAP item 1: the workload generators bench/ and cdrbench draw their worlds from; Pairs is also drawn by the root, reason and workload tests, UrbanRural by the workload tests": {
		"cardirect/internal/workload.(*Generator).Scatter",
		"cardirect/internal/workload.(*Generator).Cluster",
		"cardirect/internal/workload.(*Generator).Zipf",
		"cardirect/internal/workload.(*Generator).ScalingSweep",
		"cardirect/internal/workload.(*Generator).Pairs",
		"cardirect/internal/workload.(*Generator).UrbanRural",
		"cardirect/internal/workload.(*Generator).smoothStar",
		"cardirect/internal/workload.maxInt",
	},
	"ROADMAP item 10: E24's parallel fan on an unrefined network; Network.Check refines first, which settles E24's adversarial branch edge before any search": {
		"cardirect/internal/reason.(*Network).SolveParallel",
	},
}

// linkage is the widest kind of program that contains a function.
type linkage uint8

const (
	unlinkedKind linkage = iota
	byHarness
	byUser
)

// TestEveryFunctionIsLinked holds "production code is what a user's program
// runs": it links the ten programs the repository builds (cmd/*, examples/*
// and the bench/ harness) with inlining off, and fails on every function
// declared in a non-test file of the module that none of them contains,
// unless unlinkedAllowed names it, and on every function outside
// internal/experiments that only a harness contains, unless harnessOnly
// names it. It also fails on an entry of either list that no longer says
// what the list claims: not declared, or linked more widely. The linker keeps
// some methods no call reaches (an exported method of a type converted to an
// interface), so the check can miss dead code, but it never flags code a
// binary runs.
func TestEveryFunctionIsLinked(t *testing.T) {
	if testing.Short() {
		t.Skip("builds ten binaries")
	}
	dir := t.TempDir()
	goBuild := func(cwd string, args ...string) {
		cmd := exec.Command("go", append([]string{"build", "-gcflags=all=-l", "-o"}, args...)...)
		cmd.Dir = cwd
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %v: %v\n%s", args, err, out)
		}
	}
	goBuild(".", dir+string(filepath.Separator), "./cmd/...", "./examples/...")
	goBuild("bench", filepath.Join(dir, "bench"), ".")
	bins, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) != 10 {
		t.Fatalf("built %d programs, want the ten of cmd/, examples/ and bench/", len(bins))
	}
	for name := range harnesses {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("harness %s was not built: %v", name, err)
		}
	}

	// linked maps a symbol to the widest kind of program that contains it.
	linked := map[string]linkage{}
	generic := regexp.MustCompile(`\[[^\[\]]*\]`)
	for _, bin := range bins {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(dir, bin.Name())).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", bin.Name(), err)
		}
		kind := byUser
		if harnesses[bin.Name()] {
			kind = byHarness
		}
		for _, line := range strings.Split(string(out), "\n") {
			f := strings.Fields(line)
			if len(f) != 3 || f[1] != "T" || !strings.HasPrefix(f[2], "cardirect") {
				continue
			}
			sym := f[2]
			for generic.MatchString(sym) {
				sym = generic.ReplaceAllString(sym, "")
			}
			linked[sym] = max(linked[sym], kind)
		}
	}

	declared := map[string]linkage{} // function → the widest program kind linking it
	unlinked := map[string]string{}  // function → where it is declared
	harnessed := map[string]string{} // function → where it is declared
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || path == "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil || f.Name.Name == "main" {
			return err
		}
		pkg := "cardirect"
		if d := filepath.ToSlash(filepath.Dir(path)); d != "." {
			pkg += "/" + d
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			if fn.Recv != nil && fn.Name.Name == "String" && len(fn.Type.Params.List) == 0 &&
				fn.Type.Results != nil && len(fn.Type.Results.List) == 1 {
				if res, ok := fn.Type.Results.List[0].Type.(*ast.Ident); ok && res.Name == "string" {
					continue
				}
			}
			names := []string{pkg + "." + fn.Name.Name}
			if fn.Recv != nil {
				recv := fn.Recv.List[0].Type
				star, ptr := recv.(*ast.StarExpr)
				if ptr {
					recv = star.X
				}
				switch r := recv.(type) {
				case *ast.IndexExpr:
					recv = r.X
				case *ast.IndexListExpr:
					recv = r.X
				}
				typ := recv.(*ast.Ident).Name
				names = []string{pkg + ".(*" + typ + ")." + fn.Name.Name}
				if !ptr {
					names = append([]string{pkg + "." + typ + "." + fn.Name.Name}, names...)
				}
			}
			found := unlinkedKind
			for _, n := range names {
				found = max(found, linked[n])
			}
			declared[names[0]] = found
			switch {
			case found == unlinkedKind:
				unlinked[names[0]] = fset.Position(fn.Pos()).String()
			case found == byHarness && !strings.HasPrefix(pkg, "cardirect/internal/experiments"):
				harnessed[names[0]] = fset.Position(fn.Pos()).String()
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var missing []string
	for name, where := range unlinked {
		if _, ok := unlinkedAllowed[name]; !ok {
			missing = append(missing, name+" ("+where+")")
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("no program links %s: delete it, move it into the tests that use it, or allowlist it with a reason", m)
	}
	for name := range unlinkedAllowed {
		if kind, ok := declared[name]; !ok {
			t.Errorf("unlinkedAllowed names %s, which is not declared", name)
		} else if kind != unlinkedKind {
			t.Errorf("unlinkedAllowed names %s, which a program links", name)
		}
	}

	allowed := map[string]bool{}
	for _, names := range harnessOnly {
		for _, name := range names {
			allowed[name] = true
		}
	}
	missing = missing[:0]
	for name, where := range harnessed {
		if !allowed[name] {
			missing = append(missing, name+" ("+where+")")
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("only a harness links %s: move it into internal/experiments, or allowlist it in harnessOnly with the ROADMAP item that moves it", m)
	}
	for name := range allowed {
		switch kind, ok := declared[name]; {
		case !ok:
			t.Errorf("harnessOnly names %s, which is not declared", name)
		case kind == byUser:
			t.Errorf("harnessOnly names %s, which a user's program links", name)
		case kind == unlinkedKind:
			t.Errorf("harnessOnly names %s, which no program links", name)
		}
	}
	t.Logf("%d functions declared, %d of them unlinked, %d linked by a harness alone", len(declared), len(unlinked), len(harnessed))
}

// TestInventoryDocumented checks that DESIGN.md §2's inventory names every
// package directory under internal/ and cmd/ in some row's Package cell.
func TestInventoryDocumented(t *testing.T) {
	section := docSection(t, readDoc(t, "DESIGN.md"), "## 2. System inventory")
	pkg := regexp.MustCompile("`((?:internal|cmd)/[a-z0-9_]+)`")
	named := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		if cells := strings.Split(line, "|"); len(cells) > 4 {
			for _, m := range pkg.FindAllStringSubmatch(cells[3], -1) {
				named[m[1]] = true
			}
		}
	}
	for _, root := range []string{"internal", "cmd"} {
		dirs, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range dirs {
			if d.IsDir() && !named[root+"/"+d.Name()] {
				t.Errorf("no Package cell of DESIGN.md §2 names %s/%s", root, d.Name())
			}
		}
	}
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
