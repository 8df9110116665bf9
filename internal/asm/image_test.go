package asm

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// TestReadImageChecksFieldCounts: a record cut short is an error, not
// an index-out-of-range panic (a lone "entry" used to kill a worker).
func TestReadImageChecksFieldCounts(t *testing.T) {
	for _, c := range []string{
		"lbpimage",
		"lbpimage 1\nentry",
		"lbpimage 1\nentry\n",
		"lbpimage 1\ntext",
		"lbpimage 1\ntext 0",
		"lbpimage 1\nseg",
		"lbpimage 1\nseg 80000000",
		"lbpimage 1\nsym",
		"lbpimage 1\nsym main",
		"lbpimage 1\nsym main\n",
	} {
		if _, err := ReadImage(strings.NewReader(c)); err == nil {
			t.Errorf("ReadImage(%q) succeeded", c)
		}
	}
}

// TestReadImageBoundsWordCount: a word count is checked against the
// input that is left before anything is allocated, so a short image
// cannot claim gigabytes (or a negative or overflowing count).
func TestReadImageBoundsWordCount(t *testing.T) {
	for _, c := range []string{
		"lbpimage 1\ntext 0 -1\n",
		"lbpimage 1\ntext 0 +1\n00000001\n",
		"lbpimage 1\ntext 0 1099511627776\n",
		"lbpimage 1\ntext 0 99999999999999999999999999\n",
		"lbpimage 1\nseg 80000000 100000000\n00000000\n",
		"lbpimage 1\ntext 0 2\n00000001\n", // room for one word only
		// 1 MiB of padding admits a count of 9M as a number, but
		// leaves no room for the words: 36 MB must not be allocated.
		"lbpimage 1\n" + strings.Repeat(" ", 1<<20) + "text 0 9000000\n",
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadImage(strings.NewReader(c))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("ReadImage(%.40q) succeeded", c)
		}
		// Reading the input into memory costs a few times its size
		// (io.ReadAll grows by doubling); a rejected count costs nothing.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 8*uint64(len(c))+1<<20 {
			t.Errorf("ReadImage(%.40q) allocated %d bytes for %d bytes of input", c, grew, len(c))
		}
	}
}

// TestReadImageRejectsBadWords: a hex field is 1 to 8 hex digits and
// nothing else; fmt.Sscanf used to accept trailing garbage.
func TestReadImageRejectsBadWords(t *testing.T) {
	for _, c := range []string{
		"lbpimage 1\ntext 0 1\n0000001z\n",
		"lbpimage 1\ntext 0 1\n00000001,\n",
		"lbpimage 1\ntext 0 1\n0x000001\n",
		"lbpimage 1\ntext 0 1\n-0000001\n",
		"lbpimage 1\ntext 0 1\n100000000\n", // nine digits
		"lbpimage 1\nentry 00000010zz\n",
		"lbpimage 1\nentry 100000000\n",
		"lbpimage 1\nsym main 0000000g\n",
		"lbpimage 1\nseg 8000000x 0\n",
	} {
		if _, err := ReadImage(strings.NewReader(c)); err == nil {
			t.Errorf("ReadImage(%q) succeeded", c)
		}
	}
	// Whitespace layout and hex case are free.
	p, err := ReadImage(strings.NewReader(" lbpimage\t1\r\nentry 4 text 0 2 13\n\n  00000013\nsym main 0000000A\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := &Program{Entry: 4, Text: []uint32{0x13, 0x13}, Symbols: map[string]uint32{"main": 10}}
	if !reflect.DeepEqual(p, want) {
		t.Errorf("got %+v, want %+v", p, want)
	}
}

// FuzzReadImage: no input panics the reader, and every accepted image
// is a fixed point of WriteImage -> ReadImage: the same Program and the
// same bytes again.
func FuzzReadImage(f *testing.F) {
	f.Add([]byte("lbpimage 1\nentry"))
	p := mustAssembleF(f, `
main:
	la a0, out
	li a1, 42
	sw a1, 0(a0)
	ret
	.data
out:
	.word 1, 2, 3, 4, 5, 6, 7, 8, 9
`)
	var img bytes.Buffer
	if err := p.WriteImage(&img); err != nil {
		f.Fatal(err)
	}
	f.Add(img.Bytes())
	f.Fuzz(func(t *testing.T, in []byte) {
		p1, err := ReadImage(bytes.NewReader(in))
		if err != nil {
			return
		}
		var b1, b2 bytes.Buffer
		if err := p1.WriteImage(&b1); err != nil {
			t.Fatal(err)
		}
		p2, err := ReadImage(bytes.NewReader(b1.Bytes()))
		if err != nil {
			t.Fatalf("rereading a written image: %v\n%s", err, b1.Bytes())
		}
		if !reflect.DeepEqual(p1, p2) {
			t.Fatalf("round trip changed the program:\n%+v\n%+v", p1, p2)
		}
		if err := p2.WriteImage(&b2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatalf("round trip changed the bytes:\n%s\n%s", b1.Bytes(), b2.Bytes())
		}
	})
}

func mustAssembleF(f *testing.F, src string) *Program {
	f.Helper()
	p, err := Assemble(src, Options{})
	if err != nil {
		f.Fatal(err)
	}
	return p
}
