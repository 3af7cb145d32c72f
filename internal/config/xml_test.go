package config

import (
	"encoding/xml"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cardirect/internal/workload"
)

// sameImage is reflect.DeepEqual, except that a NaN coordinate equals a
// NaN (both readers parse "NaN" to the same bits, which == cannot see).
func sameImage(a, b *Image) bool {
	return reflect.DeepEqual(a, b) || fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b)
}

// checkAgainstReference fails when Parse accepts doc and the reference
// refuses it or reads a different image. It reports whether Parse accepted.
func checkAgainstReference(t *testing.T, doc []byte) bool {
	t.Helper()
	got, err := Parse(doc)
	if err != nil {
		return false
	}
	want, refErr := referenceParse(doc)
	if refErr != nil {
		t.Fatalf("Parse accepted what encoding/xml refuses (%v):\n%q", refErr, doc)
	}
	if !sameImage(got, want) {
		t.Fatalf("Parse and encoding/xml disagree on\n%q\n got: %#v\nwant: %#v", doc, got, want)
	}
	return true
}

// clusterImage is the read-mix benchmark's document shape: 800 regions in
// 100 clusters, 16 edges each, named after their ids and coloured.
func clusterImage(tb testing.TB) *Image {
	tb.Helper()
	img := &Image{Name: "bench"}
	for i, g := range workload.New(1).Cluster(800, 100, 16) {
		id := fmt.Sprintf("r%04d", i)
		r := Region{ID: id, Name: id, Color: fmt.Sprintf("#%06x", i*2654435761%0xffffff)}
		r.SetGeometry(g)
		img.Regions = append(img.Regions, r)
	}
	return img
}

// acceptedDocs are documents both readers take: what Save writes, the
// paper's fixtures, and every construct of XML 1.0 a hand-edited document
// may hold.
func acceptedDocs(t *testing.T) map[string][]byte {
	docs := map[string][]byte{}
	for name, img := range map[string]*Image{"greece": Greece(), "golden": goldenImage(t), "cluster": clusterImage(t)} {
		data, err := img.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		docs[name] = data
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "save.golden.xml"))
	if err != nil {
		t.Fatal(err)
	}
	docs["golden file"] = golden
	for name, s := range map[string]string{
		"minimal":         `<Image/>`,
		"empty root":      `<Image></Image>`,
		"seed":            `<?xml version="1.0"?><Image name="x"><Region id="r"><Polygon id="p"><Edge x="0" y="0"/><Edge x="1" y="0"/><Edge x="0" y="1"/></Polygon></Region></Image>`,
		"duplicate ids":   `<Image><Region id="a"/><Region id="a"/></Image>`,
		"declaration":     `<?xml version='1.0' encoding='utf-8' standalone="yes"?>` + "\n<Image/>",
		"declaration UTF": `<?xml version="1.0" encoding="UTF-8"?><Image/>`,
		"bom":             "\ufeff<?xml version=\"1.0\"?>\n<Image/>",
		"doctype": `<!DOCTYPE Image [
  <!ELEMENT Image (Region+, Relation*)>
  <!ATTLIST Image name CDATA #IMPLIED file CDATA #IMPLIED>
  <!-- a comment with <angle> brackets -->
  <!ENTITY x "a > b">
]>
<Image name="d"><Region id="r"/></Image>`,
		"doctype plain": `<!DOCTYPE Image SYSTEM "cardirect.dtd"><Image/>`,
		"comments":      `<!-- before --><Image><!-- in --><Region id="r"><!----><Polygon id="p"><!-- - --></Polygon></Region></Image><!-- after -->`,
		"pis":           `<?xml-stylesheet href="s.xsl"?><Image><?app data?><Region id="r"><?x?></Region></Image>`,
		"text":          "<Image>\n  text &amp; more\n  <Region id=\"r\">words<Polygon id=\"p\">&#65;&#x42;</Polygon></Region>tail</Image>",
		"cdata":         `<Image><![CDATA[ <not> & markup ]]><Region id="r"><![CDATA[]]></Region></Image>`,
		"quotes":        `<Image name='single "q"' file="double 'q'"><Region id='a' name="b"/></Image>`,
		"entities":      `<Image name="&lt;&gt;&amp;&apos;&quot;" file="&#38;&#x26;&#x1F600;&#xd800;"><Region id="a&#9;b&#10;c&#13;d"/></Image>`,
		"crlf":          "<Image\r\n name=\"a\r\nb\rc\r\r\nd\"\r\n>\r\n<Region id=\"r\"\r\n/>\r\n</Image>\r\n",
		"whitespace":    "<Image\tname = \"x\"  >\n<Region\nid\n=\n'r'\n/>\n</Image >",
		"unknown": `<Image extra="1"><Meta><Region id="hidden"/><Deep><Deeper/></Deep></Meta>` +
			`<Region id="r" foo="bar"><Note>n</Note><Edge x="1" y="1"/><Polygon id="p" z="0"><Edge x="1" y="2" z="3"><Child/></Edge><Vertex/></Polygon></Region>` +
			`<Relation type="N" primary="r" reference="r" other="x"><Sub/></Relation></Image>`,
		"no space between attrs": `<Image><Region id="r"><Polygon id="p"><Edge x="1"y="2"/></Polygon></Region></Image>`,
		"duplicate attrs":        `<Image name="a" name="b"><Region id="x" id="y"><Polygon id="p"><Edge x="1" x="2" y="3"/></Polygon></Region></Image>`,
		"numbers": `<Image><Region id="r"><Polygon id="p">` +
			`<Edge x="" y=" 1.5 "/><Edge x="0x1p-2" y="1_000"/><Edge x="-0" y="1e308"/>` +
			`<Edge x="Inf" y="-Inf"/><Edge x="NaN" y="+.5"/><Edge x="&#49;2" y="&#x9;7&#xA;"/>` +
			`<Edge x="4.9e-324" y="0x_1p0"/></Polygon></Region></Image>`,
		"relations":   `<Image><Region id="a"/><Relation type="B:S" primary="a" reference="b" pct="1;2;3;4;5;6;7;8;69"/><Relation/></Image>`,
		"xmlns":       `<Image xmlns="urn:cardirect"><Region id="r"/></Image>`,
		"xmlns empty": `<Image xmlns=""><Region id="r" xmlns="urn:x"/></Image>`,
		"trailing":    `<Image/>trailing <garbage & that is never read`,
		"utf8":        `<Image name="Ἀθῆναι €"><Region id="ρ" color="紅"/></Image>`,
		"names":       `<Image><_x.y-z/><Region id="r"><A1/></Region></Image>`,
	} {
		docs[name] = []byte(s)
	}
	return docs
}

// TestParseMatchesReference: the reader accepts every document of the
// corpus and reads each exactly as encoding/xml does.
func TestParseMatchesReference(t *testing.T) {
	for name, doc := range acceptedDocs(t) {
		t.Run(name, func(t *testing.T) {
			if !checkAgainstReference(t, doc) {
				_, err := Parse(doc)
				t.Fatalf("Parse refused a document encoding/xml reads: %v", err)
			}
		})
	}
}

// TestParseRefusesWhatReferenceRefuses: malformed documents are refused by
// both readers.
func TestParseRefusesWhatReferenceRefuses(t *testing.T) {
	edge := func(attrs string) string {
		return `<Image><Region id="r"><Polygon id="p"><Edge ` + attrs + `/></Polygon></Region></Image>`
	}
	for name, doc := range map[string]string{
		"empty":                 ``,
		"text only":             `not xml`,
		"wrong root":            `<Config/>`,
		"end before root":       `</Image>`,
		"unclosed root":         `<Image>`,
		"unclosed region":       `<Image><Region id="r"></Image>`,
		"mismatched end":        `<Image><Region id="r"></Polygon></Image>`,
		"mismatched unknown":    `<Image><A><B></A></B></Image>`,
		"end tag junk":          `<Image></Image x>`,
		"unquoted attr":         `<Image name=x/>`,
		"attr without value":    `<Image name/>`,
		"attr unterminated":     `<Image name="x/>`,
		"lt in attr":            `<Image name="a<b"/>`,
		"bad entity":            `<Image name="&nbsp;"/>`,
		"entity no semicolon":   `<Image name="&amp"/>`,
		"bare ampersand":        `<Image name="a & b"/>`,
		"bad char ref":          `<Image name="&#xZZ;"/>`,
		"upper X char ref":      `<Image name="&#X41;"/>`,
		"char ref nul":          `<Image name="&#0;"/>`,
		"char ref FFFE":         `<Image name="&#xFFFE;"/>`,
		"char ref too big":      `<Image name="&#x110000;"/>`,
		"control char attr":     "<Image name=\"a\x01b\"/>",
		"control char text":     "<Image>\x07</Image>",
		"invalid utf8 attr":     "<Image name=\"\xff\"/>",
		"invalid utf8 text":     "<Image>\xc3</Image>",
		"surrogate utf8":        "<Image name=\"\xed\xa0\x80\"/>",
		"FFFF raw":              "<Image name=\"\uffff\"/>",
		"cdata end in text":     `<Image>a ]]> b</Image>`,
		"bad entity in text":    `<Image>&bogus;</Image>`,
		"double dash comment":   `<Image><!-- a -- b --></Image>`,
		"triple dash comment":   `<Image><!-- a ---></Image>`,
		"unclosed comment":      `<Image><!-- a`,
		"bad comment open":      `<Image><!-a--></Image>`,
		"unclosed cdata":        `<Image><![CDATA[ a`,
		"bad cdata":             `<Image><![CDAT[ a ]]></Image>`,
		"invalid utf8 cdata":    "<Image><![CDATA[\xff]]></Image>",
		"unclosed directive":    `<!DOCTYPE Image [ <!ELEMENT Image ANY> <Image/>`,
		"unclosed pi":           `<?xml version="1.0"`,
		"pi without target":     `<? x ?><Image/>`,
		"version 1.1":           `<?xml version="1.1"?><Image/>`,
		"latin1":                `<?xml version="1.0" encoding="ISO-8859-1"?><Image/>`,
		"late declaration":      `<Image><?xml version="2.0"?></Image>`,
		"name starts digit":     `<Image><1a/></Image>`,
		"lt then space":         `<Image>< Region/></Image>`,
		"bad empty tag":         `<Image/ >`,
		"bad x":                 edge(`x="one" y="0"`),
		"bad y":                 edge(`x="0" y="1,5"`),
		"blank x":               edge(`x=" " y="0"`),
		"first of duplicate":    edge(`x="bad" x="1" y="0"`),
		"eof in tag":            `<Image name="x"`,
		"eof after lt":          `<Image><`,
		"truncated golden file": `<?xml version="1.0" encoding="UTF-8"?>` + "\n" + `<Image name="golden" file="golden.png">` + "\n  <Region id=\"alpha\" name=\"Alpha\" color=\"#ff0000\">\n    <Polygon id=\"alpha-p0\">\n      <Edge x=\"0\" y=\"0\"></Edge>",
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := referenceParse([]byte(doc)); err == nil {
				t.Fatalf("encoding/xml accepts %q; the case tests nothing", doc)
			}
			if img, err := Parse([]byte(doc)); err == nil {
				t.Fatalf("Parse accepted %q: %#v", doc, img)
			}
		})
	}
}

// TestParseStricterThanReference pins the classes of document the reader
// refuses although encoding/xml reads them (DESIGN.md §5, "Why does
// `config` read and write the DTD by hand?"): namespace-prefixed element
// or attribute names, and names with non-ASCII characters.
func TestParseStricterThanReference(t *testing.T) {
	for name, doc := range map[string]string{
		"prefixed element":       `<Image><c:Region id="r"/></Image>`,
		"prefixed attribute":     `<Image><Region c:id="r"/></Image>`,
		"namespace declaration":  `<Image xmlns:c="urn:c"><Region id="r"/></Image>`,
		"prefixed unknown":       `<Image><a:b/></Image>`,
		"prefixed end tag":       `<Image><x:a></x:a></Image>`,
		"non-ASCII element name": `<Image><Régión/></Image>`,
		"non-ASCII attr name":    `<Image nämé="x"/>`,
		"non-ASCII pi target":    `<?ü?><Image/>`,
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := referenceParse([]byte(doc)); err != nil {
				t.Fatalf("encoding/xml refuses %q (%v); the class is not stricter", doc, err)
			}
			if _, err := Parse([]byte(doc)); err == nil {
				t.Fatalf("Parse accepted %q", doc)
			}
		})
	}
}

// TestWrittenDocumentsReadAsReference: whatever the writer emits, the
// reader reads as encoding/xml does, for every image — escaping, runes XML
// cannot carry (written as U+FFFD), invalid UTF-8, non-finite and
// negative-zero coordinates, empty polygons and regions, relations with
// and without pct, any XMLName — and Save writes what Bytes returns.
func TestWrittenDocumentsReadAsReference(t *testing.T) {
	imgs := []*Image{Greece(), goldenImage(t), clusterImage(t), {}, {XMLName: xml.Name{Space: "urn:x", Local: "Other"}}}
	awkward := []string{"", "plain", `"q" 'a' <lt> &amp`, "tab\tnl\ncr\r", "ctl\x00\x01\x1f\x7f", "bad\xff\xfeutf8",
		"\ufffd real", "\ufffe\uffff", "\U0001F600 astral", "é", "\xed\xa0\x80 surrogate", "]]>", "a b"}
	floats := []float64{0, math.Copysign(0, -1), 1, -2.5, 1e21, 1e-7, 123456789.123, math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(), 1.0 / 3}
	rng := rand.New(rand.NewSource(5))
	pick := func() string { return awkward[rng.Intn(len(awkward))] }
	for k := 0; k < 200; k++ {
		img := &Image{Name: pick(), File: pick()}
		for i := rng.Intn(5); i > 0; i-- {
			r := Region{ID: pick(), Name: pick(), Color: pick()}
			for j := rng.Intn(3); j > 0; j-- {
				p := Polygon{ID: pick()}
				for e := rng.Intn(5); e > 0; e-- {
					p.Edges = append(p.Edges, Edge{X: floats[rng.Intn(len(floats))], Y: floats[rng.Intn(len(floats))]})
				}
				r.Polygons = append(r.Polygons, p)
			}
			img.Regions = append(img.Regions, r)
		}
		for i := rng.Intn(4); i > 0; i-- {
			img.Relations = append(img.Relations, Relation{Type: pick(), Primary: pick(), Reference: pick(), Pct: pick()})
		}
		imgs = append(imgs, img)
	}
	for i, img := range imgs {
		got, err := img.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := img.Save(&sb); err != nil || sb.String() != string(got) {
			t.Fatalf("image %d: Save differs from Bytes (%v)", i, err)
		}
		if !checkAgainstReference(t, got) {
			_, err := Parse(got)
			t.Fatalf("image %d: Parse refused what Bytes wrote: %v\n%q", i, err, got)
		}
	}
}

// TestParseSharesNoMemory: no string of a parsed image points into the
// document, so holding the image does not hold the document buffer.
func TestParseSharesNoMemory(t *testing.T) {
	doc, err := Greece().Bytes()
	if err != nil {
		t.Fatal(err)
	}
	img, err := Parse(doc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range doc {
		doc[i] = 'X'
	}
	again, err := Greece().Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := Parse(again); !reflect.DeepEqual(img, want) {
		t.Fatal("overwriting the document changed the parsed image")
	}
}

// BenchmarkParseImage reads the read-mix benchmark's document (800
// Cluster regions of 16 edges, as Save writes it).
func BenchmarkParseImage(b *testing.B) {
	doc, err := clusterImage(b).Bytes()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(doc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkImageBytes writes the read-mix benchmark's document.
func BenchmarkImageBytes(b *testing.B) {
	img := clusterImage(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc, err := img.Bytes()
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(doc)))
	}
}
