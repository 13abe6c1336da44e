// Command paceql runs a query in the reproduction's SQL-like language
// (including the paper's §3.3 WITH PACE clause) over text-encoded streams
// and writes the result to stdout.
//
// Each -stream flag registers one input as name=schema@file, where schema
// is comma-separated name:kind pairs (kinds: int, float, string, time,
// bool) and file is a text-codec file ("-" reads the sole stream from
// stdin). The plan is compiled (plan.Builder.Compile) before it runs;
// -explain prints the compiled plan instead of running it. Example:
//
//	paceql -stream 'traffic=segment:int,ts:time,speed:float@traffic.csv' \
//	  'SELECT segment, AVG(speed) FROM traffic GROUP BY segment WINDOW 1 MINUTE ON ts'
//
//	paceql \
//	  -stream 'a=seg:int,ts:time,v:float@a.csv' \
//	  -stream 'b=seg:int,ts:time,v:float@b.csv' \
//	  'SELECT * FROM a UNION b WITH PACE ON MAX(a.ts, b.ts) 1 MINUTE'
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/stream"
)

type streamFlags []string

func (s *streamFlags) String() string     { return strings.Join(*s, "; ") }
func (s *streamFlags) Set(v string) error { *s = append(*s, v); return nil }

func main() {
	var streams streamFlags
	flag.Var(&streams, "stream", "input stream as name=schema@file (repeatable)")
	punctEvery := flag.Int("punct-every", 100, "emit progress punctuation every N tuples (on a leading time attribute)")
	explain := flag.Bool("explain", false, "print the compiled plan instead of running it")
	flag.Parse()
	if flag.NArg() != 1 || len(streams) == 0 {
		fmt.Fprintln(os.Stderr, "usage: paceql -stream name=schema@file ... 'QUERY'")
		os.Exit(2)
	}

	cat := plan.Catalog{}
	var closers []func() error
	for _, spec := range streams {
		name, src, closer, err := parseStreamSpec(spec, *punctEvery)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		cat[name] = src
		if closer != nil {
			closers = append(closers, closer)
		}
	}
	defer func() {
		for _, c := range closers {
			_ = c()
		}
	}()

	if err := run(flag.Arg(0), cat, *explain, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

// run parses and compiles the query over cat and writes its result tuples —
// or, with explain, the compiled plan — to out. A tuple that fails to encode and
// a flush that fails are errors: truncated output must not exit 0.
func run(query string, cat plan.Catalog, explain bool, out io.Writer) error {
	b, result, err := plan.Parse(query, cat)
	if err != nil {
		return err
	}
	outSchema := result.Schema()
	enc := stream.NewEncoder(out, outSchema)
	sink := exec.NewCollector("stdout", outSchema)
	sink.Discard = true
	var encErr error
	sink.OnTuple = func(t stream.Tuple) {
		if encErr == nil {
			encErr = enc.Encode(t)
		}
	}
	result.Into(sink)
	b.Compile()
	if explain {
		if err := b.Err(); err != nil {
			return err
		}
		_, err := io.WriteString(out, b.Explain())
		return err
	}
	if err := b.Run(); err != nil {
		return err
	}
	if err := enc.Flush(); encErr == nil {
		encErr = err
	}
	if encErr != nil {
		return encErr
	}
	fmt.Fprintf(os.Stderr, "# schema: %s, %d tuples\n", outSchema, sink.Count())
	return nil
}

func parseStreamSpec(spec string, punctEvery int) (string, exec.Source, func() error, error) {
	eq := strings.IndexByte(spec, '=')
	at := strings.LastIndexByte(spec, '@')
	if eq < 0 || at < eq {
		return "", nil, nil, fmt.Errorf("bad -stream %q (want name=schema@file)", spec)
	}
	name := spec[:eq]
	schemaSpec := spec[eq+1 : at]
	file := spec[at+1:]

	var fields []stream.Field
	for _, part := range strings.Split(schemaSpec, ",") {
		nk := strings.SplitN(strings.TrimSpace(part), ":", 2)
		if len(nk) != 2 {
			return "", nil, nil, fmt.Errorf("bad field %q in %q", part, spec)
		}
		kind, err := stream.ParseKind(nk[1])
		if err != nil {
			return "", nil, nil, err
		}
		fields = append(fields, stream.F(nk[0], kind))
	}
	schema, err := stream.NewSchema(fields...)
	if err != nil {
		return "", nil, nil, err
	}

	var r *os.File
	var closer func() error
	if file == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(file)
		if err != nil {
			return "", nil, nil, err
		}
		r = f
		closer = f.Close
	}
	src := exec.NewReaderSource(name, schema, r)
	src.Mode = core.ModeExploit
	src.PunctEvery = punctEvery
	for i := 0; i < schema.Arity(); i++ {
		if schema.Field(i).Kind == stream.KindTime {
			src.PunctAttr = i
			break
		}
	}
	return name, src, closer, nil
}
