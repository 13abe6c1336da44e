package core

import (
	"testing"

	"repro/internal/punct"
	"repro/internal/stream"
)

// COUNT output schema (g, a): group at 0, count at 1.
func countMap() AttrMap {
	// Input schema (g, x): group carried from input 0, count computed.
	return AttrMap{InputArity: 2, ToInput: []int{0, -1}}
}

func TestClassifyAggPattern(t *testing.T) {
	group := []int{0}
	cases := []struct {
		p    punct.Pattern
		want AggShape
	}{
		{punct.OnAttr(2, 0, punct.Eq(stream.Int(3))), AggShapeGroup},
		{punct.OnAttr(2, 1, punct.Eq(stream.Float(5))), AggShapeValueEQ},
		{punct.OnAttr(2, 1, punct.Ge(stream.Float(5))), AggShapeValueUp},
		{punct.OnAttr(2, 1, punct.Gt(stream.Float(5))), AggShapeValueUp},
		{punct.OnAttr(2, 1, punct.Le(stream.Float(5))), AggShapeValueDown},
		{punct.OnAttr(2, 1, punct.Lt(stream.Float(5))), AggShapeValueDown},
		{punct.NewPattern(punct.Eq(stream.Int(3)), punct.Ge(stream.Float(5))), AggShapeMixed},
		{punct.AllWild(2), AggShapeNone},
	}
	for i, tc := range cases {
		if got := ClassifyAggPattern(tc.p, group, 1); got != tc.want {
			t.Errorf("case %d: shape = %v, want %v", i, got, tc.want)
		}
	}
}

// TestTable1Count verifies every row of the paper's Table 1.
func TestTable1Count(t *testing.T) {
	group := []int{0}
	m := countMap()

	// Row 1: ¬[g,*] → purge group, guard input, propagate g.
	p := punct.OnAttr(2, 0, punct.Eq(stream.Int(7)))
	plan := AggCharacterization(AggCount, ClassifyAggPattern(p, group, 1), p, m)
	wantActions(t, "¬[g,*]", plan, ActPurgeState, ActGuardInput, ActPropagate)
	if plan.Propagate[0] == nil {
		t.Fatal("¬[g,*] must propagate")
	}
	wantProp := punct.OnAttr(2, 0, punct.Eq(stream.Int(7)))
	if !plan.Propagate[0].Equal(wantProp) {
		t.Errorf("propagated %v, want %v", plan.Propagate[0], wantProp)
	}

	// Row 2: ¬[*,a] → guard output only.
	p = punct.OnAttr(2, 1, punct.Eq(stream.Float(5)))
	plan = AggCharacterization(AggCount, ClassifyAggPattern(p, group, 1), p, m)
	wantActions(t, "¬[*,a]", plan, ActGuardOutput)

	// Row 3: ¬[*,≥a] → purge matching, guard input, close windows
	// (COUNT is monotone-up). No propagation: future groups may be small.
	p = punct.OnAttr(2, 1, punct.Ge(stream.Float(5)))
	plan = AggCharacterization(AggCount, ClassifyAggPattern(p, group, 1), p, m)
	wantActions(t, "¬[*,≥a]", plan, ActPurgeState, ActGuardInput, ActCloseWindows)

	// Row 4: ¬[*,≤a] → guard output only for COUNT.
	p = punct.OnAttr(2, 1, punct.Le(stream.Float(5)))
	plan = AggCharacterization(AggCount, ClassifyAggPattern(p, group, 1), p, m)
	wantActions(t, "¬[*,≤a]", plan, ActGuardOutput)
}

// TestAggMonotonicityVariants covers §3.5's observation that COUNT and SUM
// differ ("COUNT's produced result increases monotonically, SUM's doesn't")
// plus MIN's downward symmetry.
func TestAggMonotonicityVariants(t *testing.T) {
	group := []int{0}
	m := countMap()
	up := punct.OnAttr(2, 1, punct.Ge(stream.Float(5)))
	down := punct.OnAttr(2, 1, punct.Le(stream.Float(5)))

	// SUM with ≥: not monotone → guard output only.
	plan := AggCharacterization(AggSum, ClassifyAggPattern(up, group, 1), up, m)
	wantActions(t, "SUM ¬[*,≥a]", plan, ActGuardOutput)

	// AVG with ≥: not monotone → guard output only.
	plan = AggCharacterization(AggAvg, ClassifyAggPattern(up, group, 1), up, m)
	wantActions(t, "AVG ¬[*,≥a]", plan, ActGuardOutput)

	// MAX with ≥: monotone-up → purge/guard/close (the §3.5 MAX example).
	plan = AggCharacterization(AggMax, ClassifyAggPattern(up, group, 1), up, m)
	wantActions(t, "MAX ¬[*,≥a]", plan, ActPurgeState, ActGuardInput, ActCloseWindows)

	// MAX with ≤: can still drop below? No — MAX only grows; a window
	// currently above the bound may not fall back, but one below may rise
	// out. Purging ≤-matching windows is incorrect → guard output.
	plan = AggCharacterization(AggMax, ClassifyAggPattern(down, group, 1), down, m)
	wantActions(t, "MAX ¬[*,≤a]", plan, ActGuardOutput)

	// MIN with ≤: monotone-down → symmetric purge.
	plan = AggCharacterization(AggMin, ClassifyAggPattern(down, group, 1), down, m)
	wantActions(t, "MIN ¬[*,≤a]", plan, ActPurgeState, ActGuardInput, ActCloseWindows)

	// MIN with ≥: guard output only.
	plan = AggCharacterization(AggMin, ClassifyAggPattern(up, group, 1), up, m)
	wantActions(t, "MIN ¬[*,≥a]", plan, ActGuardOutput)
	// SUM with ≤: guard output only.
	plan = AggCharacterization(AggSum, ClassifyAggPattern(down, group, 1), down, m)
	wantActions(t, "SUM ¬[*,≤a]", plan, ActGuardOutput)
}

// Join output (L, J, R) with Left=(l0), Join=(j1), Right=(r2); left input
// (l0, j1), right input (j1, r2).
func joinMaps() (part JoinPartition, left, right AttrMap) {
	part = JoinPartition{Left: []int{0}, Join: []int{1}, Right: []int{2}}
	left = AttrMap{InputArity: 2, ToInput: []int{0, 1, -1}}
	right = AttrMap{InputArity: 2, ToInput: []int{-1, 0, 1}}
	return part, left, right
}

func TestClassifyJoinPattern(t *testing.T) {
	part, _, _ := joinMaps()
	eq := func(i int) punct.Pattern { return punct.OnAttr(3, i, punct.Eq(stream.Int(1))) }
	cases := []struct {
		p    punct.Pattern
		want JoinShape
	}{
		{eq(1), JoinShapeJ},
		{eq(0), JoinShapeL},
		{eq(2), JoinShapeR},
		{punct.NewPattern(punct.Eq(stream.Int(1)), punct.Eq(stream.Int(2)), punct.Wild), JoinShapeLJ},
		{punct.NewPattern(punct.Wild, punct.Eq(stream.Int(2)), punct.Eq(stream.Int(3))), JoinShapeJR},
		{punct.NewPattern(punct.Eq(stream.Int(1)), punct.Wild, punct.Eq(stream.Int(3))), JoinShapeLR},
		{punct.AllWild(3), JoinShapeNone},
	}
	for i, tc := range cases {
		if got := ClassifyJoinPattern(tc.p, part); got != tc.want {
			t.Errorf("case %d: %v, want %v", i, got, tc.want)
		}
	}
}

// TestTable2Join verifies every row of the paper's Table 2.
func TestTable2Join(t *testing.T) {
	part, left, right := joinMaps()

	// Row 1: ¬[*,j,*] → purge both, guard input, propagate both sides.
	p := punct.OnAttr(3, 1, punct.Eq(stream.Int(4)))
	plan := JoinCharacterization(ClassifyJoinPattern(p, part), p, left, right)
	wantActions(t, "¬[*,j,*]", plan, ActPurgeState, ActGuardInput, ActPropagate)
	if plan.Propagate[0] == nil || plan.Propagate[1] == nil {
		t.Fatal("join-bound feedback must propagate to both inputs")
	}
	if !plan.Propagate[0].Equal(punct.OnAttr(2, 1, punct.Eq(stream.Int(4)))) {
		t.Errorf("left propagation: %v", plan.Propagate[0])
	}
	if !plan.Propagate[1].Equal(punct.OnAttr(2, 0, punct.Eq(stream.Int(4)))) {
		t.Errorf("right propagation: %v", plan.Propagate[1])
	}

	// Row 2: ¬[l,*,*] → purge left, guard input, propagate left only.
	p = punct.OnAttr(3, 0, punct.Eq(stream.Int(9)))
	plan = JoinCharacterization(ClassifyJoinPattern(p, part), p, left, right)
	wantActions(t, "¬[l,*,*]", plan, ActPurgeState, ActGuardInput, ActPropagate)
	if plan.Propagate[0] == nil || plan.Propagate[1] != nil {
		t.Error("left-bound feedback must propagate left only")
	}

	// Row 3: ¬[*,*,r] → purge right, guard input, propagate right only.
	p = punct.OnAttr(3, 2, punct.Eq(stream.Int(9)))
	plan = JoinCharacterization(ClassifyJoinPattern(p, part), p, left, right)
	wantActions(t, "¬[*,*,r]", plan, ActPurgeState, ActGuardInput, ActPropagate)
	if plan.Propagate[0] != nil || plan.Propagate[1] == nil {
		t.Error("right-bound feedback must propagate right only")
	}

	// Row 4: ¬[l,*,r] → guard output only.
	p = punct.NewPattern(punct.Eq(stream.Int(50)), punct.Wild, punct.Eq(stream.Int(50)))
	plan = JoinCharacterization(ClassifyJoinPattern(p, part), p, left, right)
	wantActions(t, "¬[l,*,r]", plan, ActGuardOutput)
	if plan.Propagate[0] != nil || plan.Propagate[1] != nil {
		t.Error("cross-side feedback must not propagate")
	}
}

func TestPlanString(t *testing.T) {
	part, left, right := joinMaps()
	p := punct.OnAttr(3, 1, punct.Eq(stream.Int(4)))
	plan := JoinCharacterization(ClassifyJoinPattern(p, part), p, left, right)
	s := plan.PlanString()
	if s == "" {
		t.Error("PlanString must render")
	}
}

func wantActions(t *testing.T, label string, plan ResponsePlan, want ...Action) {
	t.Helper()
	if len(plan.Actions) != len(want) {
		t.Fatalf("%s: actions %v, want %v", label, plan.Actions, want)
	}
	for i, a := range want {
		if plan.Actions[i] != a {
			t.Fatalf("%s: actions %v, want %v", label, plan.Actions, want)
		}
	}
}
