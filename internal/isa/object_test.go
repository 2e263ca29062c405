package isa

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"testing"
)

func TestObjectRoundTrip(t *testing.T) {
	p := MustAssemble(`
_start:
	movi r1, 1
loop:
	addi r1, r1, -1
	bne  r1, r0, loop
	halt
data:
	.word 0xCAFEBABE
`)
	var buf bytes.Buffer
	if err := WriteObject(&buf, p); err != nil {
		t.Fatal(err)
	}
	q, err := ReadObject(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.Origin != p.Origin || q.Entry != p.Entry {
		t.Fatalf("header mismatch: %+v vs %+v", q, p)
	}
	if !bytes.Equal(q.Image, p.Image) {
		t.Fatal("image mismatch")
	}
	if len(q.Labels) != len(p.Labels) {
		t.Fatalf("label counts: %d vs %d", len(q.Labels), len(p.Labels))
	}
	for name, addr := range p.Labels {
		if q.Labels[name] != addr {
			t.Fatalf("label %q: %d vs %d", name, q.Labels[name], addr)
		}
	}
}

func TestObjectWithOrigin(t *testing.T) {
	p := MustAssemble(".org 0x4000\n_start: halt")
	var buf bytes.Buffer
	if err := WriteObject(&buf, p); err != nil {
		t.Fatal(err)
	}
	q, err := ReadObject(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.Origin != 0x4000 || q.Entry != 0x4000 {
		t.Fatalf("origin/entry = %#x/%#x", q.Origin, q.Entry)
	}
}

func TestObjectErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("NOPE"),
		[]byte("LOBJ"), // truncated header
		append([]byte("LOBJ"), 9, 0, 0, 0, 0, 0, 0, 0), // bad version + short
	}
	for i, data := range cases {
		if _, err := ReadObject(bytes.NewReader(data)); !errors.Is(err, ErrBadObject) {
			t.Errorf("case %d: err = %v", i, err)
		}
	}
	// Truncated image.
	p := MustAssemble("halt")
	var buf bytes.Buffer
	if err := WriteObject(&buf, p); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-2]
	if _, err := ReadObject(bytes.NewReader(trunc)); !errors.Is(err, ErrBadObject) {
		t.Errorf("truncated object: err = %v", err)
	}
}

func TestObjectUnreasonableSizes(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("LOBJ")
	buf.Write([]byte{1, 0, 0, 0})             // version
	buf.Write([]byte{0, 0, 0, 0})             // origin
	buf.Write([]byte{0, 0, 0, 0})             // entry
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0x7F}) // absurd image length
	buf.Write([]byte{0, 0, 0, 0})             // labels
	if _, err := ReadObject(&buf); !errors.Is(err, ErrBadObject) {
		t.Fatalf("absurd image accepted: %v", err)
	}
}

// objectHeader returns a header-only object declaring imageLen image bytes
// and labelCount labels.
func objectHeader(imageLen, labelCount uint32) []byte {
	var buf bytes.Buffer
	buf.WriteString("LOBJ")
	for _, v := range []any{uint16(1), uint16(0), uint32(0), uint32(0), imageLen, labelCount} {
		binary.Write(&buf, binary.LittleEndian, v)
	}
	return buf.Bytes()
}

// TestObjectHeaderOnlyAllocation reads headers that declare large bodies
// but carry none: the reader must fail without allocating what the header
// claims.
func TestObjectHeaderOnlyAllocation(t *testing.T) {
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"256 MiB image", objectHeader(1<<28, 0)},
		{"1M labels", objectHeader(0, 1<<20)},
	} {
		t.Run(c.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := ReadObject(bytes.NewReader(c.data))
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrBadObject) {
				t.Fatalf("header-only object: err = %v", err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
				t.Errorf("allocated %d bytes reading a %d-byte file", got, len(c.data))
			}
		})
	}
}

// FuzzReadObject feeds arbitrary bytes to the object reader. It must never
// panic, and every object it accepts must survive WriteObject → ReadObject
// unchanged. Run with
//
//	go test -run='^$' -fuzz=FuzzReadObject ./internal/isa/
func FuzzReadObject(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteObject(&buf, MustAssemble(".org 0x4000\n_start: movi r1, 1\nloop: halt")); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(objectHeader(1<<28, 0))
	f.Add(objectHeader(4, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadObject(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteObject(&out, p); err != nil {
			t.Fatalf("accepted object does not write: %v", err)
		}
		q, err := ReadObject(&out)
		if err != nil {
			t.Fatalf("written object rejected: %v", err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("round trip changed the object:\n got %+v\nwant %+v", q, p)
		}
	})
}

// TestLoad decides by content: an object file and its source load to the
// same program.
func TestLoad(t *testing.T) {
	src := ".org 0x4000\n_start: movi r1, 1\nloop: halt"
	var buf bytes.Buffer
	if err := WriteObject(&buf, MustAssemble(src)); err != nil {
		t.Fatal(err)
	}
	fromSource, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	fromObject, err := Load(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromObject, fromSource) {
		t.Errorf("object loads to %+v, source to %+v", fromObject, fromSource)
	}
	if _, err := Load("LOBJ"); !errors.Is(err, ErrBadObject) {
		t.Errorf("truncated object: err = %v", err)
	}
}
