package config

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// The reader of the paper's DTD, written by hand: it walks the document
// bytes once and picks out the five elements. It is held to encoding/xml by
// reference_test.go: whatever it accepts, encoding/xml's Decode accepts
// into a reflect.DeepEqual *Image. It refuses two classes of document
// encoding/xml accepts: names with a namespace prefix (any ':' in an
// element or attribute name) and names holding non-ASCII bytes. The writer
// is encoding/xml itself (Image.Bytes).

// Token kinds decoder.next stops at.
const (
	tokStart = iota
	tokEnd
	tokEOF
)

// attr is one attribute of the start tag just read. Both slices point into
// the document or into a decode buffer; values are copied out as strings.
type attr struct{ name, value []byte }

// decoder is the reader's cursor over one document.
type decoder struct {
	data []byte
	pos  int

	// The tag next stopped at: its name; for a start tag its attributes and
	// whether it was self-closing.
	name  []byte
	attrs []attr
	empty bool

	open  [][]byte  // skip's stack of open element names
	polys []Polygon // the polygons of the region being read
	edges []Edge    // the vertices of the polygon being read
}

// Parse reads one CARDIRECT XML document. Like encoding/xml's Decode it
// stops at the end of the root element and ignores what follows. The image
// shares no memory with data.
func Parse(data []byte) (*Image, error) {
	d := decoder{data: data}
	img, err := d.image()
	if err != nil {
		return nil, fmt.Errorf("config: decoding XML image: %w", err)
	}
	return img, nil
}

// fail reports a malformed document at the cursor's line.
func (d *decoder) fail(format string, args ...any) error {
	line := 1 + bytes.Count(d.data[:d.pos], []byte{'\n'})
	return fmt.Errorf("XML syntax error on line %d: %s", line, fmt.Sprintf(format, args...))
}

func (d *decoder) eof() error { return d.fail("unexpected EOF") }

func (d *decoder) image() (*Image, error) {
	switch tok, err := d.next(); {
	case err != nil:
		return nil, err
	case tok == tokEOF:
		return nil, d.eof()
	case tok == tokEnd:
		return nil, d.fail("unexpected end element </%s>", d.name)
	}
	if string(d.name) != "Image" {
		return nil, d.fail("expected element type <Image> but have <%s>", d.name)
	}
	img := &Image{XMLName: xml.Name{Local: "Image"}}
	for _, a := range d.attrs {
		switch string(a.name) {
		case "name":
			img.Name = string(a.value)
		case "file":
			img.File = string(a.value)
		case "xmlns":
			// The default namespace names the root element's space.
			img.XMLName.Space = string(a.value)
		}
	}
	err := d.children("Image", func() error {
		switch string(d.name) {
		case "Region":
			reg, err := d.region()
			img.Regions = append(img.Regions, reg)
			return err
		case "Relation":
			var rel Relation
			for _, a := range d.attrs {
				switch string(a.name) {
				case "type":
					rel.Type = string(a.value)
				case "primary":
					rel.Primary = string(a.value)
				case "reference":
					rel.Reference = string(a.value)
				case "pct":
					rel.Pct = string(a.value)
				}
			}
			img.Relations = append(img.Relations, rel)
			return d.skip()
		}
		return d.skip()
	})
	if err != nil {
		return nil, err
	}
	return img, nil
}

func (d *decoder) region() (Region, error) {
	var reg Region
	for _, a := range d.attrs {
		switch string(a.name) {
		case "id":
			reg.ID = string(a.value)
		case "name":
			reg.Name = string(a.value)
		case "color":
			reg.Color = string(a.value)
		}
	}
	d.polys = d.polys[:0]
	err := d.children("Region", func() error {
		if string(d.name) != "Polygon" {
			return d.skip()
		}
		p, err := d.polygon()
		d.polys = append(d.polys, p)
		return err
	})
	if len(d.polys) > 0 {
		reg.Polygons = append([]Polygon(nil), d.polys...)
	}
	return reg, err
}

func (d *decoder) polygon() (Polygon, error) {
	var p Polygon
	for _, a := range d.attrs {
		if string(a.name) == "id" {
			p.ID = string(a.value)
		}
	}
	d.edges = d.edges[:0]
	err := d.children("Polygon", func() error {
		if string(d.name) != "Edge" {
			return d.skip()
		}
		var e Edge
		for _, a := range d.attrs {
			var err error
			switch string(a.name) {
			case "x":
				e.X, err = parseCoord(a.value)
			case "y":
				e.Y, err = parseCoord(a.value)
			}
			if err != nil {
				return err
			}
		}
		d.edges = append(d.edges, e)
		return d.skip()
	})
	if len(d.edges) > 0 {
		p.Edges = append([]Edge(nil), d.edges...)
	}
	return p, err
}

// parseCoord reads a coordinate exactly as encoding/xml reads a float64
// attribute: empty is 0, anything else is trimmed and parsed.
func parseCoord(v []byte) (float64, error) {
	if len(v) == 0 {
		return 0, nil
	}
	return strconv.ParseFloat(string(bytes.TrimSpace(v)), 64)
}

// children reads the content of the element whose start tag was just read,
// calling child at each child element's start tag (child consumes the
// element), up to the end tag, which must be name's.
func (d *decoder) children(name string, child func() error) error {
	if d.empty {
		return nil
	}
	for {
		tok, err := d.next()
		if err != nil {
			return err
		}
		switch tok {
		case tokEOF:
			return d.eof()
		case tokEnd:
			if string(d.name) != name {
				return d.fail("element <%s> closed by </%s>", name, d.name)
			}
			return nil
		}
		if err := child(); err != nil {
			return err
		}
	}
}

// skip consumes the element whose start tag was just read: its subtree,
// checked as carefully as the rest, and its end tag.
func (d *decoder) skip() error {
	if d.empty {
		return nil
	}
	open := append(d.open[:0], d.name)
	for len(open) > 0 {
		tok, err := d.next()
		if err != nil {
			return err
		}
		switch tok {
		case tokEOF:
			return d.eof()
		case tokStart:
			if !d.empty {
				open = append(open, d.name)
			}
		case tokEnd:
			if top := open[len(open)-1]; !bytes.Equal(d.name, top) {
				return d.fail("element <%s> closed by </%s>", top, d.name)
			}
			open = open[:len(open)-1]
		}
	}
	d.open = open
	return nil
}

// next checks and passes over character data, comments, processing
// instructions, CDATA sections and directives, and stops at the next start
// tag, end tag or the end of the input.
func (d *decoder) next() (int, error) {
	for d.pos < len(d.data) {
		if d.data[d.pos] != '<' {
			end := bytes.IndexByte(d.data[d.pos:], '<')
			if end < 0 {
				end = len(d.data) - d.pos
			}
			run := d.data[d.pos : d.pos+end]
			if i := bytes.Index(run, []byte("]]>")); i >= 0 {
				d.pos += i
				return 0, d.fail("unescaped ]]> not in CDATA section")
			}
			if _, err := d.chars(run, false); err != nil {
				return 0, err
			}
			d.pos += end
			continue
		}
		d.pos++
		if d.pos == len(d.data) {
			return 0, d.eof()
		}
		switch d.data[d.pos] {
		case '/':
			d.pos++
			name, err := d.tagName()
			if err != nil {
				return 0, err
			}
			d.space()
			if !d.eat('>') {
				return 0, d.fail("invalid characters between </%s and >", name)
			}
			d.name = name
			return tokEnd, nil
		case '?':
			d.pos++
			if err := d.procInst(); err != nil {
				return 0, err
			}
		case '!':
			d.pos++
			if err := d.bang(); err != nil {
				return 0, err
			}
		default:
			return tokStart, d.startTag()
		}
	}
	return tokEOF, nil
}

// startTag reads a start tag after its '<'.
func (d *decoder) startTag() error {
	name, err := d.tagName()
	if err != nil {
		return err
	}
	d.name, d.attrs, d.empty = name, d.attrs[:0], false
	for {
		d.space()
		if d.pos == len(d.data) {
			return d.eof()
		}
		switch d.data[d.pos] {
		case '/':
			d.pos++
			if !d.eat('>') {
				return d.fail("expected /> in element")
			}
			d.empty = true
			return nil
		case '>':
			d.pos++
			return nil
		}
		an, err := d.tagName()
		if err != nil {
			return err
		}
		d.space()
		if !d.eat('=') {
			return d.fail("attribute name without = in element")
		}
		d.space()
		if d.pos == len(d.data) {
			return d.eof()
		}
		q := d.data[d.pos]
		if q != '"' && q != '\'' {
			return d.fail("unquoted or missing attribute value in element")
		}
		d.pos++
		end := bytes.IndexByte(d.data[d.pos:], q)
		if end < 0 {
			return d.eof()
		}
		raw := d.data[d.pos : d.pos+end]
		if bytes.IndexByte(raw, '<') >= 0 {
			return d.fail("unescaped < inside quoted string")
		}
		v, err := d.chars(raw, true)
		if err != nil {
			return err
		}
		d.pos += end + 1
		d.attrs = append(d.attrs, attr{an, v})
	}
}

// chars checks character data or an attribute value as encoding/xml does —
// every character UTF-8 in XML's Char range, every reference one of the
// five predefined entities or a character reference — and, when keep is
// set, returns it with references resolved and CR and CRLF read as LF. It
// returns raw itself when that changes nothing, which is the common case.
func (d *decoder) chars(raw []byte, keep bool) ([]byte, error) {
	plain, err := d.checkChars(raw)
	if plain || err != nil {
		return raw, err
	}
	var out []byte
	if keep {
		out = make([]byte, 0, len(raw))
	}
	for i := 0; i < len(raw); i++ {
		switch c := raw[i]; {
		case c == '&':
			r, n := reference(raw[i:])
			if n == 0 {
				return nil, d.fail("invalid character entity %s", raw[i:min(len(raw), i+12)])
			}
			if !isXMLChar(r) {
				return nil, d.fail("illegal character code %U", r)
			}
			if keep {
				out = utf8.AppendRune(out, r)
			}
			i += n - 1
		case !keep:
		case c == '\r':
			out = append(out, '\n')
			if i+1 < len(raw) && raw[i+1] == '\n' {
				i++
			}
		default:
			out = append(out, c)
		}
	}
	if !keep {
		return raw, nil
	}
	return out, nil
}

// checkChars checks that b is UTF-8 in XML's Char range, taking '&' as a
// plain character; plain reports that b holds no '&' and no CR.
func (d *decoder) checkChars(b []byte) (plain bool, err error) {
	plain = true
	for i := 0; i < len(b); i++ {
		c := b[i]
		if c >= 0x20 && c < utf8.RuneSelf && c != '&' {
			continue
		}
		switch {
		case c == '&' || c == '\r':
			plain = false
		case c >= utf8.RuneSelf:
			r, n := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && n == 1 {
				return false, d.fail("invalid UTF-8")
			}
			if !isXMLChar(r) {
				return false, d.fail("illegal character code %U", r)
			}
			i += n - 1
		case c != '\t' && c != '\n':
			return false, d.fail("illegal character code %U", rune(c))
		}
	}
	return plain, nil
}

// reference decodes the entity or character reference b starts with,
// returning its rune and length, or a zero length when b does not start
// with one. A reference to a surrogate reads as U+FFFD, as string(rune(n))
// does in encoding/xml.
func reference(b []byte) (rune, int) {
	if len(b) > 1 && b[1] == '#' {
		i, base := 2, 10
		if len(b) > 2 && b[2] == 'x' {
			i, base = 3, 16
		}
		j := i
		for j < len(b) && isDigit(b[j], base) {
			j++
		}
		if j == len(b) || b[j] != ';' {
			return 0, 0
		}
		n, err := strconv.ParseUint(string(b[i:j]), base, 64)
		if err != nil || n > utf8.MaxRune {
			return 0, 0
		}
		r := rune(n)
		if !utf8.ValidRune(r) {
			r = utf8.RuneError
		}
		return r, j + 1
	}
	j := 1
	for j < len(b) && (isNameByte(b[j]) || b[j] >= utf8.RuneSelf) {
		j++
	}
	if j == len(b) || b[j] != ';' {
		return 0, 0
	}
	var r rune
	switch string(b[1:j]) {
	case "lt":
		r = '<'
	case "gt":
		r = '>'
	case "amp":
		r = '&'
	case "apos":
		r = '\''
	case "quot":
		r = '"'
	default:
		return 0, 0
	}
	return r, j + 1
}

func isDigit(c byte, base int) bool {
	return '0' <= c && c <= '9' || base == 16 && ('a' <= c && c <= 'f' || 'A' <= c && c <= 'F')
}

// isXMLChar reports whether r is in XML 1.0's Char production.
func isXMLChar(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

func isNameByte(c byte) bool {
	return 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || '0' <= c && c <= '9' ||
		c == '_' || c == ':' || c == '.' || c == '-'
}

// readName reads an XML name of ASCII characters at the cursor.
func (d *decoder) readName() ([]byte, error) {
	start := d.pos
	for d.pos < len(d.data) && isNameByte(d.data[d.pos]) {
		d.pos++
	}
	switch {
	case d.pos == len(d.data):
		return nil, d.eof()
	case d.data[d.pos] >= utf8.RuneSelf:
		return nil, d.fail("name with non-ASCII characters")
	case d.pos == start:
		return nil, d.fail("expected a name")
	}
	if c := d.data[start]; c != '_' && c != ':' && !('A' <= c && c <= 'Z' || 'a' <= c && c <= 'z') {
		return nil, d.fail("invalid XML name: %s", d.data[start:d.pos])
	}
	return d.data[start:d.pos], nil
}

// tagName reads an element or attribute name, which takes no namespace
// prefix.
func (d *decoder) tagName() ([]byte, error) {
	n, err := d.readName()
	if err == nil && bytes.IndexByte(n, ':') >= 0 {
		err = d.fail("name %s holds a ':'; namespace prefixes are not read", n)
	}
	return n, err
}

// space skips XML white space.
func (d *decoder) space() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\r', '\n', '\t':
			d.pos++
		default:
			return
		}
	}
}

// eat consumes c if it is next.
func (d *decoder) eat(c byte) bool {
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// procInst passes over a processing instruction after its "<?". The XML
// declaration must say version 1.0, if anything, and UTF-8, if anything.
func (d *decoder) procInst() error {
	target, err := d.readName()
	if err != nil {
		return err
	}
	d.space()
	end := bytes.Index(d.data[d.pos:], []byte("?>"))
	if end < 0 {
		return d.eof()
	}
	content := string(d.data[d.pos : d.pos+end])
	d.pos += end + 2
	if string(target) != "xml" {
		return nil
	}
	if v := piParam("version", content); v != "" && v != "1.0" {
		return d.fail("unsupported version %q; only version 1.0 is supported", v)
	}
	if enc := piParam("encoding", content); enc != "" && !strings.EqualFold(enc, "utf-8") {
		return d.fail("encoding %q declared; only UTF-8 is read", enc)
	}
	return nil
}

// piParam returns the quoted value of param in a processing instruction's
// content, or "", found the way encoding/xml's procInst finds it.
func piParam(param, s string) string {
	param += "="
	i := 0
	var quote byte
	for i < len(s) {
		sub := s[i:]
		k := strings.Index(sub, param)
		if k < 0 || len(param)+k >= len(sub) {
			return ""
		}
		i += len(param) + k + 1
		if c := sub[len(param)+k]; c == '\'' || c == '"' {
			quote = c
			break
		}
	}
	if quote == 0 {
		return ""
	}
	j := strings.IndexByte(s[i:], quote)
	if j < 0 {
		return ""
	}
	return s[i : i+j]
}

// bang passes over what follows "<!": a comment, a CDATA section or a
// directive such as DOCTYPE with its internal subset.
func (d *decoder) bang() error {
	rest := d.data[d.pos:]
	switch {
	case len(rest) == 0:
		return d.eof()
	case rest[0] == '-':
		if !bytes.HasPrefix(rest, []byte("--")) {
			return d.fail("invalid sequence <!- not part of <!--")
		}
		// The first "--" must end the comment.
		i := bytes.Index(rest[2:], []byte("--"))
		if i < 0 {
			return d.eof()
		}
		d.pos += 2 + i + 2
		if !d.eat('>') {
			return d.fail(`invalid sequence "--" not allowed in comments`)
		}
		return nil
	case rest[0] == '[':
		const open = "[CDATA["
		if !bytes.HasPrefix(rest, []byte(open)) {
			return d.fail("invalid <![ sequence")
		}
		d.pos += len(open)
		i := bytes.Index(d.data[d.pos:], []byte("]]>"))
		if i < 0 {
			return d.fail("unexpected EOF in CDATA section")
		}
		if _, err := d.checkChars(d.data[d.pos : d.pos+i]); err != nil {
			return err
		}
		d.pos += i + 3
		return nil
	}
	return d.directive()
}

// directive passes over a directive after its "<!" the way encoding/xml
// delimits one: it ends at the first '>' outside quotes that closes no
// nested '<', and a comment inside it ends at the first "-->". The byte
// after "<!" is taken as it is.
func (d *decoder) directive() error {
	d.pos++
	var quote byte
	depth := 0
	for d.pos < len(d.data) {
		b := d.data[d.pos]
		d.pos++
		switch {
		case quote == 0 && b == '>' && depth == 0:
			return nil
		case b == quote:
			quote = 0
		case quote != 0:
		case b == '\'' || b == '"':
			quote = b
		case b == '>':
			depth--
		case b == '<':
			k := 0
			for k < 3 && d.pos+k < len(d.data) && d.data[d.pos+k] == "!--"[k] {
				k++
			}
			if k < 3 {
				// A '<' that opens no comment nests; the byte that broke
				// "<!--" is read next.
				if d.pos+k == len(d.data) {
					return d.eof()
				}
				d.pos += k
				depth++
				continue
			}
			i := bytes.Index(d.data[d.pos+3:], []byte("-->"))
			if i < 0 {
				return d.eof()
			}
			d.pos += 3 + i + 3
		}
	}
	return d.eof()
}
