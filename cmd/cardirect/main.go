// Command cardirect is the command-line counterpart of the paper's
// CARDIRECT tool: it loads a configuration (an annotated image as XML per
// the paper's DTD), computes cardinal direction relations with the paper's
// linear algorithms, answers queries, and validates documents.
//
// Usage:
//
//	cardirect compute  [-pct] [-in file] [-out file]   recompute all relations
//	cardirect query    [-in file] <query>              run a query
//	cardirect validate [-in file]                      check a document
//	cardirect describe [-in file]                      list regions and relations
//	cardirect greece   [-out file]                     emit the Fig. 11 fixture
//	cardirect relation [-pct] [-in file] <p> <q>       one pair's relation
//	cardirect inverse  <relation>                      inv(R)
//	cardirect compose  <r1> <r2>                       composition
//	cardirect topo     [-in file] <p> <q>              topology + distance
//
// With -in omitted (or "-") the document is read from stdin; with -out
// omitted results go to stdout. -in also takes a cardirectd binary snapshot
// (a data directory's snapshot-<seq>.bin, or GET /v1/replication/snapshot),
// so compute exports a service's world as the paper's XML.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cardirect/internal/config"
	"cardirect/internal/core"
	"cardirect/internal/persist"
	"cardirect/internal/query"
	"cardirect/internal/reason"
	"cardirect/internal/topo"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cardirect:", err)
		os.Exit(1)
	}
}

// subcommands is the one list run dispatches on and names when the
// subcommand is missing.
var subcommands = []struct {
	name string
	run  func(args []string, stdin io.Reader, stdout io.Writer) error
}{
	{"compute", cmdCompute},
	{"query", cmdQuery},
	{"validate", cmdValidate},
	{"describe", cmdDescribe},
	{"greece", cmdGreece},
	{"relation", cmdRelation},
	{"inverse", cmdInverse},
	{"compose", cmdCompose},
	{"topo", cmdTopo},
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	if len(args) == 0 {
		names := make([]string, len(subcommands))
		for i, c := range subcommands {
			names[i] = c.name
		}
		return fmt.Errorf("missing subcommand (%s)", strings.Join(names, " | "))
	}
	for _, c := range subcommands {
		if c.name == args[0] {
			return c.run(args[1:], stdin, stdout)
		}
	}
	return fmt.Errorf("unknown subcommand %q", args[0])
}

// loadInput reads the configuration named by -in ("-" or "" = stdin): the
// paper's XML or a binary snapshot (persist.Load).
func loadInput(path string, stdin io.Reader) (*config.Image, error) {
	var data []byte
	var err error
	if path == "" || path == "-" {
		data, err = io.ReadAll(stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	return persist.Load(data)
}

// openOutput resolves -out ("" or "-" = the provided stdout writer).
func openOutput(path string, stdout io.Writer) (io.Writer, func() error, error) {
	if path == "" || path == "-" {
		return stdout, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

func cmdCompute(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("compute", flag.ContinueOnError)
	in := fs.String("in", "", "input configuration: XML or a binary snapshot (default stdin)")
	out := fs.String("out", "", "output file (default stdout)")
	pct := fs.Bool("pct", false, "also compute percentage matrices")
	if err := fs.Parse(args); err != nil {
		return err
	}
	img, err := loadInput(*in, stdin)
	if err != nil {
		return err
	}
	if err := img.Validate(); err != nil {
		return err
	}
	if err := img.ComputeRelations(*pct); err != nil {
		return err
	}
	w, closeFn, err := openOutput(*out, stdout)
	if err != nil {
		return err
	}
	if err := img.Save(w); err != nil {
		closeFn()
		return err
	}
	return closeFn()
}

func cmdQuery(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	in := fs.String("in", "", "input configuration: XML or a binary snapshot (default stdin)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("query: exactly one query argument expected")
	}
	img, err := loadInput(*in, stdin)
	if err != nil {
		return err
	}
	ev, err := query.NewEvaluator(img)
	if err != nil {
		return err
	}
	q, err := query.Parse(fs.Arg(0))
	if err != nil {
		return err
	}
	answers, err := ev.Eval(q)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n%d answer(s)\n", q, len(answers))
	for _, b := range answers {
		for i, v := range q.Vars {
			if i > 0 {
				fmt.Fprint(stdout, ", ")
			}
			fmt.Fprintf(stdout, "%s=%s", v, b[v])
		}
		fmt.Fprintln(stdout)
	}
	return nil
}

func cmdValidate(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("validate", flag.ContinueOnError)
	in := fs.String("in", "", "input configuration: XML or a binary snapshot (default stdin)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	img, err := loadInput(*in, stdin)
	if err != nil {
		return err
	}
	if err := img.Validate(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "OK: %d region(s), %d relation(s)\n", len(img.Regions), len(img.Relations))
	return nil
}

func cmdDescribe(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("describe", flag.ContinueOnError)
	in := fs.String("in", "", "input configuration: XML or a binary snapshot (default stdin)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	img, err := loadInput(*in, stdin)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "Image %q (file %q)\n", img.Name, img.File)
	for i := range img.Regions {
		r := &img.Regions[i]
		g := r.Geometry()
		fmt.Fprintf(stdout, "  region %-14s name=%-14q color=%-7s polygons=%d edges=%d area=%.3f box=%v\n",
			r.ID, r.Name, r.Color, len(r.Polygons), g.NumEdges(), g.Area(), g.BoundingBox())
	}
	for _, rel := range img.Relations {
		fmt.Fprintf(stdout, "  relation %s %s %s\n", rel.Primary, rel.Type, rel.Reference)
		if rel.Pct != "" {
			if m, err := config.ParsePct(rel.Pct); err == nil {
				for _, t := range core.Tiles() {
					if m.Get(t) > 0 {
						fmt.Fprintf(stdout, "    %-2v %.1f%%\n", t, m.Get(t))
					}
				}
			}
		}
	}
	return nil
}

func cmdGreece(args []string, _ io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("greece", flag.ContinueOnError)
	out := fs.String("out", "", "output file (default stdout)")
	pct := fs.Bool("pct", false, "include percentage matrices")
	if err := fs.Parse(args); err != nil {
		return err
	}
	img := config.Greece()
	if err := img.ComputeRelations(*pct); err != nil {
		return err
	}
	w, closeFn, err := openOutput(*out, stdout)
	if err != nil {
		return err
	}
	if err := img.Save(w); err != nil {
		closeFn()
		return err
	}
	return closeFn()
}

func cmdRelation(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("relation", flag.ContinueOnError)
	in := fs.String("in", "", "input configuration: XML or a binary snapshot (default stdin)")
	pct := fs.Bool("pct", false, "also print the percentage matrix")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("relation: expected <primary-id> <reference-id>")
	}
	img, err := loadInput(*in, stdin)
	if err != nil {
		return err
	}
	p := img.FindRegion(fs.Arg(0))
	q := img.FindRegion(fs.Arg(1))
	if p == nil || q == nil {
		return fmt.Errorf("relation: unknown region id(s) %q / %q", fs.Arg(0), fs.Arg(1))
	}
	rel, err := core.ComputeCDR(p.Geometry(), q.Geometry())
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s %v %s\n%s\n", p.ID, rel, q.ID, rel.MatrixString())
	if *pct {
		m, _, err := core.ComputeCDRPct(p.Geometry(), q.Geometry())
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%v\n", m)
	}
	return nil
}

func cmdInverse(args []string, _ io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("inverse", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("inverse: expected one relation (e.g. B:S:SW)")
	}
	r, err := core.ParseRelation(fs.Arg(0))
	if err != nil {
		return err
	}
	inv := reason.Inverse(r)
	fmt.Fprintf(stdout, "inv(%v) = %v   (%d relation(s))\n", r, inv, inv.Len())
	return nil
}

func cmdCompose(args []string, _ io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("compose", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("compose: expected two relations (e.g. N B:S)")
	}
	r1, err := core.ParseRelation(fs.Arg(0))
	if err != nil {
		return err
	}
	r2, err := core.ParseRelation(fs.Arg(1))
	if err != nil {
		return err
	}
	comp := reason.Composition(r1, r2)
	fmt.Fprintf(stdout, "comp(%v, %v) = %v   (%d relation(s))\n", r1, r2, comp, comp.Len())
	return nil
}

func cmdTopo(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("topo", flag.ContinueOnError)
	in := fs.String("in", "", "input configuration: XML or a binary snapshot (default stdin)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("topo: expected <primary-id> <reference-id>")
	}
	img, err := loadInput(*in, stdin)
	if err != nil {
		return err
	}
	p := img.FindRegion(fs.Arg(0))
	q := img.FindRegion(fs.Arg(1))
	if p == nil || q == nil {
		return fmt.Errorf("topo: unknown region id(s) %q / %q", fs.Arg(0), fs.Arg(1))
	}
	a, b := p.Geometry(), q.Geometry()
	dir, err := core.ComputeCDR(a, b)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "direction: %s %v %s\n", p.ID, dir, q.ID)
	fmt.Fprintf(stdout, "topology:  %v\n", topo.Classify(a, b, 0))
	fmt.Fprintf(stdout, "distance:  %v (min %.4f, overlap area %.4f)\n",
		topo.ClassifyDistance(a, b), topo.MinDistance(a, b), topo.IntersectionArea(a, b))
	return nil
}
