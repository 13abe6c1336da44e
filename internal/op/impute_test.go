package op

import (
	"testing"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/punct"
	"repro/internal/stream"
)

func newTestImpute(mode FeedbackMode) *Impute {
	store := archive.NewStore(1)
	store.SeedDiurnal(4, 2)
	return &Impute{
		Schema: trafficSchema, SegAttr: 0, DetAttr: 1, TsAttr: 2, SpeedAttr: 3,
		Store: store, Mode: mode,
	}
}

func TestImputeFillsNulls(t *testing.T) {
	im := newTestImpute(FeedbackIgnore)
	got := exec.Drive(im, exec.Tuples(0, trafficNull(1, 1, 8*3600*1_000_000))).Out[0].Tuples() // 8am: rush hour
	if len(got) != 1 || got[0].At(3).IsNull() {
		t.Fatalf("imputation: %v", got)
	}
	est := got[0].At(3).AsFloat()
	want := archive.DiurnalSpeed(8*60, 1)
	if est < want-1 || est > want+1 {
		t.Errorf("estimate %g, archive profile %g", est, want)
	}
	imputed, _, _ := im.Stats()
	if imputed != 1 || im.Store.Lookups() != 1 {
		t.Error("lookup accounting")
	}
}

func TestImputePassesCleanTuples(t *testing.T) {
	im := newTestImpute(FeedbackIgnore)
	got := exec.Drive(im, exec.Tuples(0, traffic(1, 1, 100, 52))).Out[0].Tuples()
	if len(got) != 1 || got[0].At(3).AsFloat() != 52 {
		t.Fatalf("clean pass: %v", got)
	}
	if im.Store.Lookups() != 0 {
		t.Error("clean tuples must not query the archive")
	}
}

func TestImputeFallbackWithoutHistory(t *testing.T) {
	im := &Impute{
		Schema: trafficSchema, SegAttr: 0, DetAttr: 1, TsAttr: 2, SpeedAttr: 3,
		Store: archive.NewStore(1), FallbackSpeed: 48,
	}
	got := exec.Drive(im, exec.Tuples(0, trafficNull(9, 9, 100))).Out[0].Tuples()
	if len(got) != 1 || got[0].At(3).AsFloat() != 48 {
		t.Fatalf("fallback: %v", got)
	}
}

func TestImputeGuardSkipsLookup(t *testing.T) {
	// The Experiment 1 mechanism: feedback ¬[ts < cutoff] makes IMPUTE
	// discard late tuples before the expensive archival query.
	im := newTestImpute(FeedbackExploit)
	exec.Drive(im, exec.Feedback(0, core.NewAssumed(punct.OnAttr(4, 2, punct.Lt(stream.TimeMicros(1000))))),
		exec.Tuples(0,
			trafficNull(1, 1, 500), // late: skipped, no lookup
			trafficNull(1, 1, 1500)))
	if im.Store.Lookups() != 1 {
		t.Fatalf("lookups = %d, want 1 (guard must precede lookup)", im.Store.Lookups())
	}
	imputed, skipped, _ := im.Stats()
	if imputed != 1 || skipped != 1 {
		t.Errorf("imputed=%d skipped=%d", imputed, skipped)
	}
	resp := im.Trace()
	if len(resp) != 1 || !resp[0].Did(core.ActGuardInput) {
		t.Errorf("response: %+v", resp)
	}
}

func TestImputeIgnoreModeDoesNotGuard(t *testing.T) {
	im := newTestImpute(FeedbackIgnore)
	exec.Drive(im, exec.Feedback(0, core.NewAssumed(punct.OnAttr(4, 2, punct.Lt(stream.TimeMicros(1000))))),
		exec.Tuples(0, trafficNull(1, 1, 500)))
	if im.Store.Lookups() != 1 {
		t.Error("feedback-unaware impute must still do the lookup")
	}
}

func TestImputeRefusesGuardOnImputedAttr(t *testing.T) {
	// Feedback binding the speed attribute cannot guard the input: the
	// input value is null there, and the output value is computed.
	im := newTestImpute(FeedbackExploit)
	exec.Drive(im, exec.Feedback(0, core.NewAssumed(punct.OnAttr(4, 3, punct.Ge(stream.Float(50))))))
	if im.guards.Active() != 0 {
		t.Fatal("speed-bound feedback must not install an input guard")
	}
	resp := im.Trace()
	if len(resp) != 1 || resp[0].Note == "" {
		t.Error("refusal must be recorded")
	}
}

func TestImputeGuardExpires(t *testing.T) {
	im := newTestImpute(FeedbackExploit)
	var installed, expired int
	tr := exec.Drive(im, exec.Feedback(0, core.NewAssumed(punct.OnAttr(4, 2, punct.Lt(stream.TimeMicros(1000))))),
		exec.Call(func(*exec.Trace) { installed = im.guards.Active() }),
		exec.Punct(0, tsPunct(1000)),
		exec.Call(func(*exec.Trace) { expired = im.guards.Active() }))
	if installed != 1 {
		t.Fatal("guard installed")
	}
	if expired != 0 {
		t.Error("guard must expire when punctuation covers it")
	}
	if len(puncts(tr.Out[0])) != 1 {
		t.Error("punctuation must pass through impute")
	}
}

// Impute rewrites speed, so it relays punctuation through the map that
// carries every attribute but speed: [speed ≤ 100] is consumed — the
// imputed tuple that follows it (fallback 55) would break its promise —
// while a ts bound relays unchanged.
func TestImputeRelaysPunctuationThroughCarriedAttributes(t *testing.T) {
	im := &Impute{
		Schema: trafficSchema, SegAttr: 0, DetAttr: 1, TsAttr: 2, SpeedAttr: 3,
		Store: archive.NewStore(1), // no history: the fallback speed
	}
	speedBound := punct.NewEmbedded(punct.OnAttr(4, 3, punct.Le(stream.Float(100))))
	tr := exec.Drive(im,
		exec.Punct(0, speedBound),
		exec.Tuples(0, trafficNull(1, 1, 100)),
		exec.Punct(0, tsPunct(100)))
	if tr.Err != nil {
		t.Fatal(tr.Err)
	}
	got := tr.Out[0].Tuples()
	if len(got) != 1 || got[0].At(3).AsFloat() != 55 || !speedBound.Pattern.Matches(got[0]) {
		t.Fatalf("imputed %v, want one tuple of speed 55 inside [speed ≤ 100]", got)
	}
	ps := puncts(tr.Out[0])
	if len(ps) != 1 || !ps[0].Pattern.Equal(tsPunct(100).Pattern) {
		t.Fatalf("relayed %v, want only the ts punctuation, unchanged", ps)
	}
}

func TestArchiveStore(t *testing.T) {
	s := archive.NewStore(2)
	s.Add(archive.Reading{Segment: 1, Detector: 2, MinuteOfDay: 30, Speed: 50})
	s.Add(archive.Reading{Segment: 1, Detector: 2, MinuteOfDay: 35, Speed: 60})
	got, ok := s.Lookup(1, 2, 33)
	if !ok || got != 55 {
		t.Fatalf("lookup = %g, %v", got, ok)
	}
	if _, ok := s.Lookup(9, 9, 0); ok {
		t.Error("missing history must report !ok")
	}
	if s.Lookups() != 2 || s.Size() != 1 {
		t.Errorf("stats: lookups=%d size=%d", s.Lookups(), s.Size())
	}
	if s.String() == "" {
		t.Error("String")
	}
}

func TestArchiveDiurnalProfile(t *testing.T) {
	free := archive.DiurnalSpeed(3*60, 0) // 3am
	rush := archive.DiurnalSpeed(8*60, 0) // 8am
	evening := archive.DiurnalSpeed(17*60, 0)
	if free != 60 {
		t.Errorf("free-flow = %g", free)
	}
	if rush >= free || evening >= free {
		t.Error("rush hours must be slower than free flow")
	}
	if archive.DiurnalSpeed(8*60, 4) >= archive.DiurnalSpeed(8*60, 0) {
		// segment 4 has a deeper dip than segment 0 (depth 25+2*(s%5)).
		t.Error("per-segment dip depths must vary")
	}
}

// TestImputeRejectsUnexpectedInput: the runner-facing index guard added to
// every single-input operator (mirrors Aggregate's and Join's).
func TestImputeRejectsUnexpectedInput(t *testing.T) {
	im := newTestImpute(FeedbackIgnore)
	// The guard refuses before it touches the context.
	if err := im.ProcessTuple(1, trafficNull(1, 1, 0), nil); err == nil {
		t.Error("tuple on input 1 accepted")
	}
	if err := im.ProcessPunct(-1, tsPunct(10), nil); err == nil {
		t.Error("punctuation on input -1 accepted")
	}
	// Input 0 keeps working.
	if tr := exec.Drive(im, exec.Tuples(0, trafficNull(1, 1, 0))); tr.Err != nil {
		t.Fatal(tr.Err)
	}
}
