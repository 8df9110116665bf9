package asm

import (
	"fmt"
	"io"
	"strconv"
)

// Program image serialization: a simple line-oriented text format so that
// lbp-asm output can be inspected, diffed and reloaded by lbp-run.
//
//	lbpimage 1
//	entry <hex>
//	text <base-hex> <nwords>
//	<8-hex-digit word> ...
//	seg <addr-hex> <nwords>
//	<words...>
//	sym <name> <hex>
//
// Words are written eight to a line. The reader treats every run of
// ASCII whitespace alike, so any re-wrapping of what WriteImage emits
// reads back as the same program; hex fields are 1 to 8 digits of either
// case and counts are unsigned decimal.

// WriteImage serializes the program.
func (p *Program) WriteImage(w io.Writer) error {
	n := 64 + 9*len(p.Text)
	for _, s := range p.Segments {
		n += 32 + 9*len(s.Words)
	}
	names := p.SymbolsSorted()
	for _, name := range names {
		n += 14 + len(name)
	}
	b := make([]byte, 0, n)
	b = append(b, "lbpimage 1\nentry "...)
	b = appendHex8(b, p.Entry)
	b = append(b, "\ntext "...)
	b = appendHex8(b, p.TextBase)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(len(p.Text)), 10)
	b = append(b, '\n')
	b = appendWords(b, p.Text)
	for _, s := range p.Segments {
		b = append(b, "seg "...)
		b = appendHex8(b, s.Addr)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(len(s.Words)), 10)
		b = append(b, '\n')
		b = appendWords(b, s.Words)
	}
	for _, name := range names {
		b = append(b, "sym "...)
		b = append(b, name...)
		b = append(b, ' ')
		b = appendHex8(b, p.Symbols[name])
		b = append(b, '\n')
	}
	_, err := w.Write(b)
	return err
}

const hexDigits = "0123456789abcdef"

// appendHex8 appends v as exactly eight lower-case hex digits (%08x).
func appendHex8(b []byte, v uint32) []byte {
	return append(b,
		hexDigits[v>>28], hexDigits[v>>24&0xf], hexDigits[v>>20&0xf], hexDigits[v>>16&0xf],
		hexDigits[v>>12&0xf], hexDigits[v>>8&0xf], hexDigits[v>>4&0xf], hexDigits[v&0xf])
}

// appendWords appends words eight to a line, space separated.
func appendWords(b []byte, words []uint32) []byte {
	for i, v := range words {
		b = appendHex8(b, v)
		if i%8 == 7 || i == len(words)-1 {
			b = append(b, '\n')
		} else {
			b = append(b, ' ')
		}
	}
	return b
}

// ReadImage parses a serialized program. Every record's field count,
// every hex field and every word count is checked before use, and a
// word count is bounded by the input left to hold it, so no input can
// panic the reader or make it allocate more than the input implies.
func ReadImage(r io.Reader) (*Program, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("asm: reading image: %w", err)
	}
	d := imageDecoder{buf: buf}
	if string(d.field()) != "lbpimage" || string(d.field()) != "1" {
		return nil, fmt.Errorf("asm: not an lbpimage v1 file")
	}
	p := &Program{Symbols: map[string]uint32{}}
	for {
		rec := d.field()
		switch string(rec) {
		case "":
			return p, nil
		case "entry":
			if p.Entry, err = d.hex("entry"); err != nil {
				return nil, err
			}
		case "text":
			if p.TextBase, err = d.hex("text"); err != nil {
				return nil, err
			}
			if p.Text, err = d.words("text"); err != nil {
				return nil, err
			}
		case "seg":
			var s Segment
			if s.Addr, err = d.hex("seg"); err != nil {
				return nil, err
			}
			if s.Words, err = d.words("seg"); err != nil {
				return nil, err
			}
			p.Segments = append(p.Segments, s)
		case "sym":
			name := string(d.field())
			if name == "" {
				return nil, fmt.Errorf("asm: sym record: missing name")
			}
			v, err := d.hex("sym")
			if err != nil {
				return nil, err
			}
			p.Symbols[name] = v
		default:
			return nil, fmt.Errorf("asm: unknown image record %q", truncate(string(rec)))
		}
	}
}

// imageDecoder is a cursor over a whole image in memory.
type imageDecoder struct {
	buf []byte
	pos int
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' || c == '\f'
}

// field returns the next whitespace-delimited field as a slice of the
// input, empty at end of input.
func (d *imageDecoder) field() []byte {
	for d.pos < len(d.buf) && isSpace(d.buf[d.pos]) {
		d.pos++
	}
	start := d.pos
	for d.pos < len(d.buf) && !isSpace(d.buf[d.pos]) {
		d.pos++
	}
	return d.buf[start:d.pos]
}

// hex parses the next field as a 1-8 digit hex number.
func (d *imageDecoder) hex(rec string) (uint32, error) {
	f := d.field()
	v, ok := parseHex32(f)
	if !ok {
		if len(f) == 0 {
			return 0, fmt.Errorf("asm: %s record: missing field", rec)
		}
		return 0, fmt.Errorf("asm: %s record: bad hex field %q", rec, truncate(string(f)))
	}
	return v, nil
}

// words parses a decimal word count and then that many hex words. The
// count is checked against the remaining input (each word takes at
// least one digit and one separator) before anything is allocated.
func (d *imageDecoder) words(rec string) ([]uint32, error) {
	f := d.field()
	if len(f) == 0 {
		return nil, fmt.Errorf("asm: %s record: missing word count", rec)
	}
	n := 0
	for _, c := range f {
		if c < '0' || c > '9' || n > len(d.buf) {
			return nil, fmt.Errorf("asm: %s record: bad word count %q", rec, truncate(string(f)))
		}
		n = n*10 + int(c-'0')
	}
	if n > (len(d.buf)-d.pos)/2 {
		return nil, fmt.Errorf("asm: truncated image (%s record wants %d words, input has room for %d)",
			rec, n, (len(d.buf)-d.pos)/2)
	}
	if n == 0 {
		return nil, nil // as assembled: an empty section has no slice
	}
	out := make([]uint32, n)
	for i := range out {
		f := d.field()
		v, ok := parseHex32(f)
		if !ok {
			if len(f) == 0 {
				return nil, fmt.Errorf("asm: truncated image (want %d words, got %d)", n, i)
			}
			return nil, fmt.Errorf("asm: bad word %q", truncate(string(f)))
		}
		out[i] = v
	}
	return out, nil
}

// parseHex32 parses 1 to 8 hex digits of either case, nothing else.
func parseHex32(f []byte) (uint32, bool) {
	if len(f) == 0 || len(f) > 8 {
		return 0, false
	}
	var v uint32
	for _, c := range f {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c -= 'a' - 10
		case c >= 'A' && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		v = v<<4 | uint32(c)
	}
	return v, true
}

// truncate bounds a hostile field echoed into an error message.
func truncate(s string) string {
	if len(s) > 32 {
		return s[:32] + "..."
	}
	return s
}
