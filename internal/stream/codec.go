package stream

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// The codec is the reproduction's stand-in for NiagaraST's XML/SAXDOM ingest
// path: a line-oriented, schema-directed text format. It exists so
// cmd/paceql can pipe realistic data through files and so tests can express
// fixtures compactly; the feedback mechanism itself never depends on it.

// Encoder writes tuples as one comma-separated line each.
type Encoder struct {
	w      *bufio.Writer
	schema Schema
}

// NewEncoder creates an encoder for the given schema.
func NewEncoder(w io.Writer, schema Schema) *Encoder {
	return &Encoder{w: bufio.NewWriter(w), schema: schema}
}

// Encode writes one tuple.
func (e *Encoder) Encode(t Tuple) error {
	if err := t.Validate(e.schema); err != nil {
		return err
	}
	for i, v := range t.Values {
		if i > 0 {
			if err := e.w.WriteByte(','); err != nil {
				return err
			}
		}
		if _, err := e.w.WriteString(v.String()); err != nil {
			return err
		}
	}
	return e.w.WriteByte('\n')
}

// Flush flushes buffered output.
func (e *Encoder) Flush() error { return e.w.Flush() }

// Decoder reads tuples written by Encoder. It tracks the exact byte
// offset of consumed input so seekable sources can checkpoint a replay
// position (snapshot.Stater on exec.ReaderSource).
type Decoder struct {
	r      *bufio.Reader
	schema Schema
	line   int
	offset int64 // bytes consumed, including the line's terminator
}

// NewDecoder creates a decoder for the given schema.
func NewDecoder(r io.Reader, schema Schema) *Decoder {
	return &Decoder{r: bufio.NewReaderSize(r, 64*1024), schema: schema}
}

// Offset returns the number of input bytes fully consumed: the boundary
// after the last decoded (or skipped) line. Re-reading from this offset
// resumes exactly after that line.
func (d *Decoder) Offset() int64 { return d.offset }

// maxLine bounds one input line (as the previous Scanner-based decoder
// did); binary or corrupt input fails fast instead of buffering
// unboundedly.
const maxLine = 1 << 20

// readLine reads one delimiter-terminated line, enforcing maxLine while
// reading so an undelimited blob never accumulates past the bound.
func (d *Decoder) readLine() (string, error) {
	var sb strings.Builder
	for {
		frag, err := d.r.ReadSlice('\n')
		sb.Write(frag)
		if sb.Len() > maxLine {
			return "", fmt.Errorf("stream: line %d exceeds %d bytes (corrupt or binary input?)", d.line+1, maxLine)
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		return sb.String(), err
	}
}

// Decode reads the next tuple; it returns io.EOF at end of input.
func (d *Decoder) Decode() (Tuple, error) {
	for {
		raw, err := d.readLine()
		if raw == "" && err != nil {
			if err == io.EOF {
				return Tuple{}, io.EOF
			}
			return Tuple{}, err
		}
		if err != nil && err != io.EOF {
			return Tuple{}, err
		}
		d.offset += int64(len(raw))
		d.line++
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			if err == io.EOF {
				return Tuple{}, io.EOF
			}
			continue
		}
		return d.parse(line)
	}
}

func (d *Decoder) parse(line string) (Tuple, error) {
	parts := splitCSV(line)
	if len(parts) != d.schema.Arity() {
		return Tuple{}, fmt.Errorf("stream: line %d: %d fields, schema wants %d", d.line, len(parts), d.schema.Arity())
	}
	vals := make([]Value, len(parts))
	for i, p := range parts {
		v, err := ParseValue(d.schema.Field(i).Kind, strings.TrimSpace(p))
		if err != nil {
			return Tuple{}, fmt.Errorf("stream: line %d field %d: %w", d.line, i, err)
		}
		vals[i] = v
	}
	return Tuple{Values: vals}, nil
}

// splitCSV splits on commas, honouring double-quoted strings containing
// commas or escaped quotes (the form produced by Value.String).
func splitCSV(line string) []string {
	var parts []string
	var cur strings.Builder
	inQuote := false
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case c == '\\' && inQuote && i+1 < len(line):
			cur.WriteByte(c)
			i++
			cur.WriteByte(line[i])
		case c == '"':
			inQuote = !inQuote
			cur.WriteByte(c)
		case c == ',' && !inQuote:
			parts = append(parts, cur.String())
			cur.Reset()
		default:
			cur.WriteByte(c)
		}
	}
	parts = append(parts, cur.String())
	return parts
}
