package config

import (
	"testing"

	"cardirect/internal/core"
)

// FuzzParsePct checks the pct-attribute decoder never panics on arbitrary
// input and that whatever it accepts round-trips bit-exactly through
// encodePct — the invariant seeded recovery depends on: a percent matrix
// written to a snapshot is read back as exactly the cached value.
func FuzzParsePct(f *testing.F) {
	var m core.PercentMatrix
	for i, t := range core.Tiles() {
		m.Set(t, float64(i)*100/9)
	}
	f.Add(encodePct(m))
	f.Add("0;0;0;0;0;0;0;0;0")
	f.Add("100;0;0;0;0;0;0;0;0")
	f.Add("1e-300;2.5;33.333333333333336;0;0;0;0;0;64.1")
	f.Add("nope")
	f.Add(";;;;;;;;")
	f.Add("NaN;0;0;0;0;0;0;0;0")
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ParsePct(s)
		if err != nil {
			return
		}
		enc := encodePct(m)
		back, err := ParsePct(enc)
		if err != nil {
			t.Fatalf("encodePct produced unparseable %q: %v", enc, err)
		}
		if back != m {
			t.Fatalf("round-trip changed matrix: %v -> %q -> %v", m, enc, back)
		}
		// And a second encode is byte-stable.
		if enc2 := encodePct(back); enc2 != enc {
			t.Fatalf("encodePct not stable: %q vs %q", enc, enc2)
		}
	})
}

// FuzzParseImage is the reader-versus-reference differential: whatever
// Parse accepts, encoding/xml accepts into the same image (reference_test.go),
// and a valid accepted document is written and reads back with its
// structure.
func FuzzParseImage(f *testing.F) {
	valid, err := Greece().Bytes()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(valid))
	f.Add(`<?xml version="1.0"?><Image name="x"><Region id="r"><Polygon id="p"><Edge x="0" y="0"/><Edge x="1" y="0"/><Edge x="0" y="1"/></Polygon></Region></Image>`)
	f.Add("<Image></Image>")
	f.Add("not xml")
	f.Add(`<Image><Region id="a"/><Region id="a"/></Image>`)
	f.Add("<!DOCTYPE Image [<!ENTITY e \"v\"><!-- c -->]>\r\n<Image name='&lt;&#x41;'><!-- c --><?pi x?><![CDATA[t]]><X><Region id=\"no\"/></X><Region id=\"r\"><Polygon id=\"p\"><Edge x=\" 0x1p-2 \" y=\"1_0\"/></Polygon></Region><Relation type=\"N\" primary=\"r\" reference=\"r\" pct=\"1\"/></Image>")
	f.Fuzz(func(t *testing.T, s string) {
		if !checkAgainstReference(t, []byte(s)) {
			return
		}
		img, err := Parse([]byte(s))
		if err != nil {
			t.Fatal(err)
		}
		data, err := img.Bytes()
		if err != nil {
			t.Fatalf("save failed: %v", err)
		}
		if err := img.Validate(); err != nil {
			return // parsed but structurally invalid: fine
		}
		back, err := Parse(data)
		if err != nil {
			t.Fatalf("reload failed: %v", err)
		}
		if len(back.Regions) != len(img.Regions) || len(back.Relations) != len(img.Relations) {
			t.Fatalf("roundtrip changed structure: %d/%d vs %d/%d regions/relations",
				len(back.Regions), len(back.Relations), len(img.Regions), len(img.Relations))
		}
	})
}
