package snapshot

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/punct"
	"repro/internal/stream"
)

func TestCodecRoundTrip(t *testing.T) {
	pat := punct.OnAttr(3, 1, punct.Le(stream.TimeMicros(1_000_000)))
	fb := core.Feedback{Intent: core.Assumed, Pattern: pat, Origin: "pace", Hops: 2, Seq: 7}
	tup := stream.Tuple{Values: []stream.Value{stream.Int(4), stream.String_("x"), stream.Null}, Seq: 99}

	e := NewEncoder()
	e.PutBool(true)
	e.PutInt64(-12345)
	e.PutInt(42)
	e.PutFloat64(3.5)
	e.PutString("hello, snapshot")
	e.PutBytes([]byte{0, 1, 2})
	e.PutValue(stream.TimeMicros(55))
	e.PutTuple(tup)
	e.PutPattern(pat)
	e.PutFeedback(fb)
	blob, err := e.Bytes()
	if err != nil {
		t.Fatal(err)
	}

	d := NewDecoder(blob)
	if !d.GetBool() || d.GetInt64() != -12345 || d.GetInt() != 42 || d.GetFloat64() != 3.5 {
		t.Fatal("scalar round trip failed")
	}
	if d.GetString() != "hello, snapshot" || !reflect.DeepEqual(d.GetBytes(), []byte{0, 1, 2}) {
		t.Fatal("string/bytes round trip failed")
	}
	if v := d.GetValue(); v.Kind != stream.KindTime || v.I != 55 {
		t.Fatal("value round trip failed")
	}
	if got := d.GetTuple(); !got.Equal(tup) || got.Seq != 99 {
		t.Fatalf("tuple round trip failed: %v", got)
	}
	if !d.GetPattern().Equal(pat) {
		t.Fatal("pattern round trip failed")
	}
	if got := d.GetFeedback(); got.String() != fb.String() || got.Origin != "pace" || got.Seq != 7 {
		t.Fatalf("feedback round trip failed: %v", got)
	}
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d trailing bytes", d.Remaining())
	}
}

// PutTuple is the shared tuple wire encoding (golden bytes:
// stream.TestTupleBinaryGolden), nothing of its own.
func TestPutTupleIsStreamWireFormat(t *testing.T) {
	tup := stream.Tuple{Values: []stream.Value{stream.Int(4), stream.String_("x"), stream.Null}, Seq: 99}
	e := NewEncoder()
	e.PutTuple(tup)
	e.PutTuple(stream.Tuple{})
	got, _ := e.Bytes()
	if want := (stream.Tuple{}).AppendBinary(tup.AppendBinary(nil)); !bytes.Equal(got, want) {
		t.Fatalf("PutTuple wrote %x, stream.Tuple.AppendBinary %x", got, want)
	}
}

func TestDecoderStickyError(t *testing.T) {
	d := NewDecoder([]byte{0x01}) // one bool, then nothing
	d.GetBool()
	d.GetInt64() // truncated: first failure
	d.GetString()
	d.GetTuple()
	if d.Err() == nil {
		t.Fatal("expected sticky error")
	}
}

func TestSnapshotEncodeDecode(t *testing.T) {
	s := &Snapshot{Epoch: 3, Nodes: []NodeState{
		{ID: 0, Name: "src", State: []byte("pos")},
		{ID: 1, Name: "agg", State: nil},
		{ID: 2, Name: "sink", State: []byte{1, 2, 3}},
	}}
	back, err := Decode(s.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if back.Epoch != 3 || len(back.Nodes) != 3 || back.Nodes[2].Name != "sink" {
		t.Fatalf("round trip mismatch: %+v", back)
	}
	if string(back.Nodes[0].State) != "pos" {
		t.Fatal("node state lost")
	}
	if _, err := Decode([]byte("not a snapshot")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func testBackend(t *testing.T, b Backend) {
	t.Helper()
	s := &Snapshot{Epoch: 1, Nodes: []NodeState{{ID: 0, Name: "n", State: []byte("s")}}}
	if err := b.Put("ckpt-001", s.Encode()); err != nil {
		t.Fatal(err)
	}
	if err := b.Put("ckpt-002", s.Encode()); err != nil {
		t.Fatal(err)
	}
	data, err := b.Get("ckpt-001")
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Epoch != 1 || back.Nodes[0].Name != "n" {
		t.Fatalf("loaded snapshot mismatch: %+v", back)
	}
	ids, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []string{"ckpt-001", "ckpt-002"}) {
		t.Fatalf("List = %v", ids)
	}
	if _, err := b.Get("nope"); err == nil {
		t.Fatal("unknown id must fail")
	}
}

func TestMemoryBackend(t *testing.T) { testBackend(t, NewMemory()) }

func TestDirBackend(t *testing.T) {
	dir, err := NewDir(filepath.Join(t.TempDir(), "snaps"))
	if err != nil {
		t.Fatal(err)
	}
	testBackend(t, dir)
	// Ids must stay inside the directory.
	if err := dir.Put("../escape", nil); err == nil {
		t.Fatal("path traversal accepted")
	}
	// Stray files are not listed as snapshots.
	if err := os.WriteFile(filepath.Join(dir.Path, "README.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	ids, _ := dir.List()
	if !reflect.DeepEqual(ids, []string{"ckpt-001", "ckpt-002"}) {
		t.Fatalf("List with stray file = %v", ids)
	}
}

func TestGuardsRoundTrip(t *testing.T) {
	g := core.NewGuardTable(3)
	g.Install(core.NewAssumed(punct.OnAttr(3, 0, punct.Eq(stream.Int(2)))))
	g.Install(core.Feedback{Intent: core.Assumed,
		Pattern: punct.OnAttr(3, 1, punct.Lt(stream.TimeMicros(500))), Origin: "pace", Seq: 3})

	capture := func(g *core.GuardTable) []byte {
		var st State
		st.Keep("op", Guards(g))
		e := NewEncoder()
		if err := EncodeCapture(&st, e); err != nil {
			t.Fatal(err)
		}
		blob, err := e.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	load := func(g *core.GuardTable, blob []byte) error {
		var st State
		st.Keep("op", Guards(g))
		return st.LoadState(NewDecoder(blob))
	}
	blob := capture(g)
	back := core.NewGuardTable(3)
	back.Install(core.NewAssumed(punct.OnAttr(3, 2, punct.Eq(stream.Float(7))))) // replaced by the load
	if err := load(back, blob); err != nil {
		t.Fatal(err)
	}
	if back.Active() != 2 {
		t.Fatalf("restored %d guards, want 2", back.Active())
	}
	// The restored table suppresses the same tuples.
	hit := stream.NewTuple(stream.Int(2), stream.TimeMicros(900), stream.Float(1))
	late := stream.NewTuple(stream.Int(5), stream.TimeMicros(100), stream.Float(1))
	pass := stream.NewTuple(stream.Int(5), stream.TimeMicros(900), stream.Float(1))
	if !back.Suppress(hit) || !back.Suppress(late) || back.Suppress(pass) {
		t.Fatal("restored guards diverge from originals")
	}
	// An empty table restores empty; a table of another arity refuses the
	// guards, whose probes would index past its tuples.
	if err := load(back, capture(core.NewGuardTable(3))); err != nil || back.Active() != 0 {
		t.Fatalf("empty table restores %d guards (%v), want none", back.Active(), err)
	}
	if err := load(core.NewGuardTable(4), blob); err == nil || !strings.Contains(err.Error(), "arity") {
		t.Fatalf("guards of arity 3 into a table of arity 4: %v, want an arity error", err)
	}
}

// TestStateRefusesTrailingBytes: a derived load refuses a blob with bytes
// past its last field.
func TestStateRefusesTrailingBytes(t *testing.T) {
	n := int64(7)
	var st State
	st.Keep("op", Marker(-1), Int64(&n))
	e := NewEncoder()
	if err := EncodeCapture(&st, e); err != nil {
		t.Fatal(err)
	}
	blob, _ := e.Bytes()
	n = 0
	if err := st.LoadState(NewDecoder(append(blob, 0))); err == nil || !strings.Contains(err.Error(), `"op"`) {
		t.Fatalf("a blob with a trailing byte loads: %v", err)
	}
	if err := st.LoadState(NewDecoder(blob)); err != nil || n != 7 {
		t.Fatalf("load: %v, n = %d", err, n)
	}
}
