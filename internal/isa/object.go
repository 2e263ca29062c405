package isa

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Object file format for assembled LA32 programs ("LOBJ"): lets programs be
// assembled once with latch-asm and executed (latch-run -src) or
// disassembled later.
//
//	header: "LOBJ" magic, uint16 version, uint16 reserved,
//	        uint32 origin, uint32 entry, uint32 image length,
//	        uint32 label count
//	body:   image bytes, then labels as {uint16 name length, name bytes,
//	        uint32 address}, sorted by name
const (
	objectMagic   = "LOBJ"
	objectVersion = 1
)

// ErrBadObject reports a malformed object stream.
var ErrBadObject = errors.New("isa: malformed object file")

// WriteObject serializes a program.
func WriteObject(w io.Writer, p *Program) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(objectMagic); err != nil {
		return err
	}
	hdr := []any{
		uint16(objectVersion), uint16(0),
		p.Origin, p.Entry, uint32(len(p.Image)), uint32(len(p.Labels)),
	}
	for _, f := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, f); err != nil {
			return err
		}
	}
	if _, err := bw.Write(p.Image); err != nil {
		return err
	}
	names := make([]string, 0, len(p.Labels))
	for name := range p.Labels {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if len(name) > 0xFFFF {
			return fmt.Errorf("isa: label %q too long", name[:32])
		}
		if err := binary.Write(bw, binary.LittleEndian, uint16(len(name))); err != nil {
			return err
		}
		if _, err := bw.WriteString(name); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, p.Labels[name]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadObject deserializes a program.
func ReadObject(r io.Reader) (*Program, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrBadObject, err)
	}
	if string(magic[:]) != objectMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadObject, magic)
	}
	var version, reserved uint16
	var origin, entry, imageLen, labelCount uint32
	for _, dst := range []any{&version, &reserved, &origin, &entry, &imageLen, &labelCount} {
		if err := binary.Read(br, binary.LittleEndian, dst); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadObject, err)
		}
	}
	if version != objectVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadObject, version)
	}
	const maxImage = 1 << 28
	if imageLen > maxImage || labelCount > 1<<20 {
		return nil, fmt.Errorf("%w: unreasonable sizes (image %d, labels %d)", ErrBadObject, imageLen, labelCount)
	}
	// Memory grows with the bytes present, not with the declared sizes.
	image, err := io.ReadAll(io.LimitReader(br, int64(imageLen)))
	if err != nil || len(image) != int(imageLen) {
		return nil, fmt.Errorf("%w: truncated image: %d of %d bytes (%v)", ErrBadObject, len(image), imageLen, err)
	}
	p := &Program{
		Origin: origin,
		Entry:  entry,
		Image:  image,
		Labels: make(map[string]uint32, min(labelCount, 1<<10)),
	}
	for i := uint32(0); i < labelCount; i++ {
		var nameLen uint16
		if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
			return nil, fmt.Errorf("%w: label %d: %v", ErrBadObject, i, err)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(br, name); err != nil {
			return nil, fmt.Errorf("%w: label %d name: %v", ErrBadObject, i, err)
		}
		var addr uint32
		if err := binary.Read(br, binary.LittleEndian, &addr); err != nil {
			return nil, fmt.Errorf("%w: label %d addr: %v", ErrBadObject, i, err)
		}
		p.Labels[string(name)] = addr
	}
	return p, nil
}

// Load reads src as an object file when it carries the LOBJ magic, as
// assembly source otherwise.
func Load(src string) (*Program, error) {
	if strings.HasPrefix(src, objectMagic) {
		return ReadObject(strings.NewReader(src))
	}
	return Assemble(src)
}
