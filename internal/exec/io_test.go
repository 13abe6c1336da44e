package exec

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/punct"
	"repro/internal/stream"
)

func TestReaderSourceDecodes(t *testing.T) {
	schema := stream.MustSchema(
		stream.F("seg", stream.KindInt),
		stream.F("ts", stream.KindTime),
		stream.F("v", stream.KindFloat),
	)
	input := strings.Join([]string{
		"1,1970-01-01T00:00:00.000001Z,50",
		"2,1970-01-01T00:00:00.000002Z,60",
		"# comment",
		"3,1970-01-01T00:00:00.000003Z,null",
	}, "\n")
	src := NewReaderSource("r", schema, strings.NewReader(input))
	src.PunctAttr = 1
	src.PunctEvery = 2
	tr := DriveSource(src)
	if tr.Err != nil {
		t.Fatal(tr.Err)
	}
	tuples := tr.Out[0].Tuples()
	if len(tuples) != 3 {
		t.Fatalf("decoded %d tuples", len(tuples))
	}
	if !tuples[2].At(2).IsNull() {
		t.Error("null must decode")
	}
	if n := len(tr.Out[0].Items()) - len(tuples); n != 1 {
		t.Errorf("puncts: %d, want 1 (every 2 tuples)", n)
	}
}

func TestReaderSourceFeedback(t *testing.T) {
	schema := stream.MustSchema(stream.F("seg", stream.KindInt))
	input := "1\n2\n1\n2\n1\n"
	src := NewReaderSource("r", schema, strings.NewReader(input))
	src.FeedbackAware = true
	tr := DriveSource(src, core.NewAssumed(punct.OnAttr(1, 0, punct.Eq(stream.Int(2)))))
	if got := tr.Out[0].Tuples(); len(got) != 3 {
		t.Fatalf("suppression: %v", got)
	}
	if src.skipped != 2 {
		t.Errorf("skipped = %d", src.skipped)
	}
}

func TestReaderSourceBadInput(t *testing.T) {
	schema := stream.MustSchema(stream.F("seg", stream.KindInt))
	src := NewReaderSource("r", schema, strings.NewReader("not-a-number\n"))
	if DriveSource(src).Err == nil {
		t.Fatal("malformed input must surface an error")
	}
}
