package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"cardirect/internal/geom"
	"cardirect/internal/workload"
)

// fillReference is the three-pass preparation Prepared.fill replaced,
// transcribed verbatim: geom.Polygon.SignedArea picks the orientation, the
// ring is copied forward or reversed, and a derive loop links the edges and
// sums the area and box. fill reads each ring once and must reproduce every
// field of it bit for bit (TestFillMatchesReference, FuzzFill).
func (p *Prepared) fillReference(name string, r geom.Region, coords []float64, polys []preparedPoly) {
	p.Name = name
	p.fastOK = true
	p.c = coords
	p.polys = polys
	sax, say, sbx, sby := p.streams()

	box := geom.EmptyRect()
	k := 0
	for pi, poly := range r {
		n := len(poly)
		ax, ay, bx, by := sax[k:k+n], say[k:k+n], sbx[k:k+n], sby[k:k+n]
		if sa := poly.SignedArea(); n < 3 || sa > 0 || sa == 0 {
			for i, v := range poly {
				ax[i], ay[i] = v.X, v.Y
			}
		} else {
			for i, v := range poly {
				ax[n-1-i], ay[n-1-i] = v.X, v.Y
			}
		}
		var area float64
		pb := geom.EmptyRect()
		for i := range ax {
			j := i + 1
			if j == n {
				j = 0
			}
			bx[i], by[i] = ax[j], ay[j]
			if ax[i] == bx[i] && ay[i] == by[i] {
				p.fastOK = false // zero-length edges break the band derivation
			}
			area += (bx[i] - ax[i]) * (ay[i] + by[i]) / 2
			pb = pb.ExtendPoint(geom.Point{X: ax[i], Y: ay[i]})
		}
		area = abs(area)
		if area == 0 || pb.MinX == pb.MaxX || pb.MinY == pb.MaxY {
			// Degenerate rings violate the orientation invariant; a flat
			// ring is one whatever float residue its area sum carries.
			p.fastOK = false
		}
		box = box.Union(pb)
		k += n
		polys[pi] = preparedPoly{box: pb, area: area, end: int32(k)}
		p.totalArea += area
	}
	p.Box = box
	_, err := NewGrid(box)
	p.noGrid = err != nil
}

// prepareReference is Prepare over fillReference.
func prepareReference(name string, r geom.Region) *Prepared {
	n := r.NumEdges()
	p := new(Prepared)
	p.fillReference(name, r, make([]float64, 4*n), make([]preparedPoly, len(r)))
	return p
}

// sameBits reports whether two float64s are the same bit pattern: it tells
// +0 from −0 and matches a NaN only with itself.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameSum is sameBits for an area summed from a ring, except that any two
// NaNs match. Go leaves open which operand's payload a NaN result carries,
// and the compiler orders the operands of a commutative add as register
// allocation suits it, so a sum that meets two NaNs (a NaN coordinate and
// an Inf − Inf, say) carries one payload or the other depending on the
// surrounding code, not on the source expression. Coordinates and boxes
// are copied or selected, never computed, and stay bit for bit.
func sameSum(a, b float64) bool { return sameBits(a, b) || a != a && b != b }

func sameRect(a, b geom.Rect) bool {
	return sameBits(a.MinX, b.MinX) && sameBits(a.MinY, b.MinY) &&
		sameBits(a.MaxX, b.MaxX) && sameBits(a.MaxY, b.MaxY)
}

// checkSamePrepared fails unless got equals want in every field, comparing
// floats bit for bit.
func checkSamePrepared(t *testing.T, label string, got, want *Prepared) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: %s", label, fmt.Sprintf(format, args...))
	}
	if got.Name != want.Name {
		fail("Name %q, want %q", got.Name, want.Name)
	}
	if !sameRect(got.Box, want.Box) {
		fail("Box %v, want %v", got.Box, want.Box)
	}
	gax, gay, gbx, gby := got.streams()
	wax, way, wbx, wby := want.streams()
	for s, pair := range [][2][]float64{{gax, wax}, {gay, way}, {gbx, wbx}, {gby, wby}} {
		g, w := pair[0], pair[1]
		if len(g) != len(w) {
			fail("stream %d has %d edges, want %d", s, len(g), len(w))
		}
		for i := range g {
			if !sameBits(g[i], w[i]) {
				fail("stream %d edge %d: %v, want %v", s, i, g[i], w[i])
			}
		}
	}
	if len(got.polys) != len(want.polys) {
		fail("%d polygons, want %d", len(got.polys), len(want.polys))
	}
	for k := range got.polys {
		g, w := got.polys[k], want.polys[k]
		if !sameRect(g.box, w.box) || !sameSum(g.area, w.area) || g.end != w.end {
			fail("polygon %d: box %v area %v end %d, want box %v area %v end %d", k, g.box, g.area, g.end, w.box, w.area, w.end)
		}
	}
	if got.noGrid != want.noGrid || got.fastOK != want.fastOK {
		fail("noGrid %v fastOK %v, want %v %v", got.noGrid, got.fastOK, want.noGrid, want.fastOK)
	}
	if !sameSum(got.totalArea, want.totalArea) {
		fail("totalArea %v, want %v", got.totalArea, want.totalArea)
	}
}

// checkFill holds every caller of fill — Prepare, Scratch.primary over
// storage reused from earlier calls, and PrepareAll over one slab — to the
// reference on the regions of one world.
func checkFill(t *testing.T, label string, sc *Scratch, regions []NamedRegion) {
	t.Helper()
	all, err := PrepareAll(regions)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for i, r := range regions {
		want := prepareReference(r.Name, r.Region)
		got, err := Prepare(r.Name, r.Region)
		if err != nil {
			t.Fatalf("%s %s: %v", label, r.Name, err)
		}
		checkSamePrepared(t, label+" Prepare "+r.Name, got, want)
		checkSamePrepared(t, label+" PrepareAll "+r.Name, all[i], want)
		checkSamePrepared(t, label+" Scratch.primary "+r.Name, sc.primary(r.Region), prepareReference("", r.Region))
	}
}

// withReversed returns the regions followed by each region again with
// every ring reversed.
func withReversed(rs []NamedRegion) []NamedRegion {
	out := slices.Clone(rs)
	for _, r := range rs {
		out = append(out, NamedRegion{Name: r.Name + "-rev", Region: reversed(r.Region)})
	}
	return out
}

// TestFillMatchesReference pins the one-pass preparation to the three-pass
// reference on the generated worlds of both orientations and on the rings
// where the two could part ways: too short to orient, flat, collinear,
// with a repeated vertex, holding both zeros (the box's tie rule is
// order-dependent there), 1 ulp tall, and regions mixing orientations.
func TestFillMatchesReference(t *testing.T) {
	sc := new(Scratch)
	var sweep, zipf []NamedRegion
	for _, c := range workload.New(20040314).ScalingSweep([]int{100, 316, 1000, 3162, 10000}) {
		sweep = append(sweep, NamedRegion{Name: fmt.Sprintf("sweep%d", c.Edges), Region: c.A})
	}
	for i, r := range workload.New(39).Zipf(geom.Rect{MaxX: 10000, MaxY: 10000}, 60, 2048) {
		zipf = append(zipf, NamedRegion{Name: fmt.Sprintf("z%03d", i), Region: r})
	}
	checkFill(t, "sweep", sc, withReversed(sweep))
	checkFill(t, "cluster", sc, withReversed(clusterWorkload(39, 40)))
	checkFill(t, "scatter", sc, withReversed(batchWorkload(39, 40)))
	checkFill(t, "zipf", sc, withReversed(zipf))

	negZero := math.Copysign(0, -1)
	signedZeros := geom.Poly(geom.Pt(0, 1), geom.Pt(1, 1), geom.Pt(1, negZero), geom.Pt(negZero, 0))
	square := workload.Box(0, 0, 1, 1)
	triangle := geom.Poly(geom.Pt(2, 0), geom.Pt(2, 1), geom.Pt(3, 0))
	sliver, _ := fuzzPair(t, 0.030000000000000006, 1.9999999999999998, 0.5, 2, -0.6000000000000001, 0.2, 2.1, 0.6, 'M')
	edgeCases := []NamedRegion{
		{Name: "empty-ring", Region: geom.Region{{}, square}},
		{Name: "one-vertex", Region: geom.Region{geom.Poly(geom.Pt(1, 2))}},
		{Name: "two-vertices", Region: geom.Region{geom.Poly(geom.Pt(1, 2), geom.Pt(3, 4))}},
		{Name: "collinear", Region: geom.Rgn(geom.Poly(geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0)))},
		{Name: "flat-box", Region: geom.Rgn(workload.Box(0, 1, 2, 1))},
		{Name: "repeated-vertex", Region: geom.Rgn(geom.Poly(geom.Pt(0, 1), geom.Pt(1, 1), geom.Pt(1, 1), geom.Pt(1, 0), geom.Pt(0, 0)))},
		{Name: "signed-zeros", Region: geom.Rgn(signedZeros)},
		{Name: "1-ulp-tall", Region: sliver},
		{Name: "mixed-orientations", Region: geom.Region{square, reversed(geom.Rgn(triangle))[0], workload.Box(5, 5, 6, 8)}},
	}
	checkFill(t, "edge cases", sc, withReversed(edgeCases))
}

// ringBytes encodes a ring as FuzzFill's raw input: 16 little-endian bytes
// per vertex.
func ringBytes(poly geom.Polygon) []byte {
	var out []byte
	for _, v := range poly {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v.X))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v.Y))
	}
	return out
}

// FuzzFill holds fill to the three-pass reference on a fuzzer-chosen ring.
// Bit 4 of flags reads the bytes as raw float64 bit patterns (NaN, ±Inf,
// ±0 and subnormals included), else each byte pair as a vertex on a small
// lattice where collinear runs, repeated vertices and signed zeros are
// common; bit 1 reverses the ring; bit 2 adds the ring again reversed, so
// the region mixes orientations.
func FuzzFill(f *testing.F) {
	negZero := math.Copysign(0, -1)
	f.Add(ringBytes(geom.Poly(geom.Pt(0, 1), geom.Pt(1, 1), geom.Pt(1, negZero), geom.Pt(negZero, 0))), uint8(4))
	f.Add(ringBytes(geom.Poly(geom.Pt(0, 1), geom.Pt(1, 1), geom.Pt(1, negZero), geom.Pt(negZero, 0))), uint8(5))
	f.Add(ringBytes(geom.Poly(geom.Pt(0.030000000000000006, 2), geom.Pt(0.5, 2), geom.Pt(0.5, 1.9999999999999998))), uint8(6))
	f.Add(ringBytes(geom.Poly(geom.Pt(0, 0), geom.Pt(math.NaN(), 1), geom.Pt(1, 0))), uint8(4))
	// A signalling NaN and an Inf − Inf in one reversed ring's sum.
	f.Add(ringBytes(geom.Poly(geom.Pt(math.Float64frombits(0x7ff7303030303030), 1), geom.Pt(1, 1), geom.Pt(9e164, 1e160), geom.Pt(1, 1))), uint8(6))
	f.Add([]byte{0x20, 0x20, 0x60, 0x20, 0x60, 0x20, 0x60, 0x60, 0x00, 0x60}, uint8(0))
	f.Add([]byte{0x01, 0x20, 0x40, 0x20, 0x40, 0x81, 0x01, 0x81}, uint8(3))
	f.Add([]byte{0x10, 0x10}, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, flags uint8) {
		var ring geom.Polygon
		if flags&4 != 0 {
			for ; len(data) >= 16 && len(ring) < 64; data = data[16:] {
				ring = append(ring, geom.Pt(
					math.Float64frombits(binary.LittleEndian.Uint64(data)),
					math.Float64frombits(binary.LittleEndian.Uint64(data[8:]))))
			}
		} else {
			coord := func(b byte) float64 {
				if v := float64(int8(b) >> 5); v != 0 || b&1 == 0 {
					return v
				}
				return negZero
			}
			for ; len(data) >= 2 && len(ring) < 64; data = data[2:] {
				ring = append(ring, geom.Pt(coord(data[0]), coord(data[1])))
			}
		}
		if flags&1 != 0 {
			slices.Reverse(ring)
		}
		r := geom.Region{ring}
		if flags&2 != 0 {
			r = append(r, reversed(r)[0])
		}
		if r.NumEdges() == 0 {
			t.Skip("no edges")
		}
		got, err := Prepare("f", r)
		if err != nil {
			t.Fatal(err)
		}
		checkSamePrepared(t, "Prepare", got, prepareReference("f", r))
		checkSamePrepared(t, "Scratch.primary", new(Scratch).primary(r), prepareReference("", r))
	})
}

// BenchmarkPrepareSweep measures the one-shot preparation Compute-CDR and
// Compute-CDR% pay per call: Scratch.primary over the ScalingSweep
// primaries (100 to 10 000 edges) on warm storage, reported per edge.
func BenchmarkPrepareSweep(b *testing.B) {
	var sweep []geom.Region
	edges := 0
	for _, c := range workload.New(20040314).ScalingSweep([]int{100, 316, 1000, 3162, 10000}) {
		sweep = append(sweep, c.A)
		edges += c.Edges
	}
	sc := new(Scratch)
	sc.primary(sweep[len(sweep)-1]) // grow the storage to the largest primary
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for _, r := range sweep {
			sc.primary(r)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(edges), "ns/edge")
}
