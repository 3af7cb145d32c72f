package config

import (
	"bytes"
	"encoding/xml"
)

// The encoding/xml reader the package used before its hand-written one
// (xml.go), kept as the reference it is held to, the way internal/core's
// transcription_test.go holds the kernels: whatever Parse accepts,
// referenceParse accepts into the same *Image (xml_test.go,
// FuzzParseImage). The writer needs no reference: Bytes is encoding/xml's
// indented Encode.

// referenceParse decodes a document by reflection over Image's struct tags.
func referenceParse(data []byte) (*Image, error) {
	var img Image
	if err := xml.NewDecoder(bytes.NewReader(data)).Decode(&img); err != nil {
		return nil, err
	}
	return &img, nil
}
