package config

import (
	"bytes"
	"encoding/xml"
	"sort"
)

// The encoding/xml codec the package used before its hand-written reader
// and writer (xml.go), kept as the reference they are held to, the way
// internal/core's transcription_test.go holds the kernels: whatever Parse
// accepts, referenceParse accepts into the same *Image, and Bytes writes
// what referenceBytes writes (xml_test.go, FuzzParseImage).

// referenceParse decodes a document by reflection over Image's struct tags.
func referenceParse(data []byte) (*Image, error) {
	var img Image
	if err := xml.NewDecoder(bytes.NewReader(data)).Decode(&img); err != nil {
		return nil, err
	}
	return &img, nil
}

// referenceBytes encodes a document by reflection: header, regions sorted
// by id, relations by (primary, reference, type), two-space indent.
func referenceBytes(img *Image) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(xml.Header)
	out := Image{XMLName: img.XMLName, Name: img.Name, File: img.File}
	out.Regions = append([]Region(nil), img.Regions...)
	sort.SliceStable(out.Regions, func(i, j int) bool { return out.Regions[i].ID < out.Regions[j].ID })
	out.Relations = append([]Relation(nil), img.Relations...)
	sort.SliceStable(out.Relations, func(i, j int) bool {
		a, b := &out.Relations[i], &out.Relations[j]
		if a.Primary != b.Primary {
			return a.Primary < b.Primary
		}
		if a.Reference != b.Reference {
			return a.Reference < b.Reference
		}
		return a.Type < b.Type
	})
	enc := xml.NewEncoder(&buf)
	enc.Indent("", "  ")
	if err := enc.Encode(&out); err != nil {
		return nil, err
	}
	if err := enc.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
