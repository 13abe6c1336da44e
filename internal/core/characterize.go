package core

import (
	"fmt"

	"repro/internal/punct"
)

// This file encodes the operator characterizations of §4.3 (Tables 1 and 2)
// as data. A characterization classifies an incoming assumed-feedback
// pattern by which parts of the operator's (partitioned) output schema it
// binds, and yields a ResponsePlan: the local exploit actions that are
// correct for that shape, plus the safe propagations.
//
// An operator's Characterize returns these plans and a Responder enacts
// them; the tests and `cmd/experiments tables` verify that enacting them
// satisfies Definition 1.

// ResponsePlan is the prescribed reaction to one feedback shape.
type ResponsePlan struct {
	// Actions lists the correct local exploit actions, in the order the
	// paper gives them.
	Actions []Action
	// Propagate holds, per input port, the pattern to relay upstream
	// (nil = no safe propagation to that input).
	Propagate []*punct.Pattern
	// Explanation mirrors the table row's prose, for the demonstrator.
	Explanation string
}

// ---------------------------------------------------------------------------
// The trivial rows: operators with no state a feedback could describe.
// ---------------------------------------------------------------------------

// Stateless characterizes an operator that keeps nothing a feedback could
// describe (§4.3: "assumed punctuation can simply be added to its select
// condition"). Assumed feedback is answered with the given guard actions —
// which guards make sense is the operator's to say: both for a filter whose
// input and output guard coincide, the output alone for a source — and
// feedback of any intent is relayed to each input whose mapping carries every
// bound attribute (Definition 2): the identity for SELECT, UNION and MERGE,
// the attribute mapping for PROJECT, MAP and IMPUTE, none for a source.
func Stateless(f Feedback, guard []Action, maps ...AttrMap) ResponsePlan {
	plan := ResponsePlan{Propagate: make([]*punct.Pattern, len(maps))}
	if f.Intent == Assumed {
		plan.Actions = append(plan.Actions, guard...)
	}
	relay := false
	for i, pr := range SafePropagationMulti(f.Pattern, maps) {
		if pr.OK {
			pat := pr.Pattern
			plan.Propagate[i] = &pat
			relay = true
		} else {
			plan.Explanation = "propagation refused: " + pr.Reason
		}
	}
	if relay {
		plan.Actions = append(plan.Actions, ActPropagate)
	}
	if len(plan.Actions) == 0 {
		plan.Actions = []Action{ActNone}
	}
	return plan
}

// ---------------------------------------------------------------------------
// Table 1: COUNT (window aggregate with output schema (g, a)).
// ---------------------------------------------------------------------------

// AggKind distinguishes aggregates whose feedback characterizations differ
// because of their monotonicity (§3.5: "COUNT's produced result increases
// monotonically, SUM's doesn't").
type AggKind uint8

const (
	// AggCount counts tuples per group. Monotonically non-decreasing.
	AggCount AggKind = iota
	// AggSum sums a numeric attribute. Not monotone in general (negative
	// inputs); monotone if the operator knows inputs are non-negative.
	AggSum
	// AggAvg averages a numeric attribute. Not monotone.
	AggAvg
	// AggMax keeps the maximum. Monotonically non-decreasing.
	AggMax
	// AggMin keeps the minimum. Monotonically non-increasing.
	AggMin
)

var aggNames = [...]string{AggCount: "COUNT", AggSum: "SUM", AggAvg: "AVG", AggMax: "MAX", AggMin: "MIN"}

// String names the aggregate.
func (k AggKind) String() string {
	if int(k) < len(aggNames) {
		return aggNames[k]
	}
	return "AGG(?)"
}

// MonotoneUp reports whether the running aggregate can only grow as more
// tuples arrive.
func (k AggKind) MonotoneUp() bool { return k == AggCount || k == AggMax }

// MonotoneDown reports whether the running aggregate can only shrink.
func (k AggKind) MonotoneDown() bool { return k == AggMin }

// AggShape classifies an assumed pattern against an aggregate's output
// schema partition (g..., a): which side the pattern binds.
type AggShape uint8

const (
	// AggShapeGroup binds only grouping attributes: ¬[g,*].
	AggShapeGroup AggShape = iota
	// AggShapeValueEQ binds only the aggregate value with = or a
	// non-monotone-compatible predicate: ¬[*,a].
	AggShapeValueEQ
	// AggShapeValueUp binds only the aggregate value with ≥/> (an
	// upward-closed set): ¬[*,≥a].
	AggShapeValueUp
	// AggShapeValueDown binds only the aggregate value with ≤/< (a
	// downward-closed set): ¬[*,≤a].
	AggShapeValueDown
	// AggShapeMixed binds both group and value attributes.
	AggShapeMixed
	// AggShapeNone binds nothing (all wildcard) — rejected upstream.
	AggShapeNone
)

// ClassifyAggPattern classifies pattern p for an aggregate whose output
// schema has the grouping attributes at indices groupIdx and the aggregate
// value at index valueIdx.
func ClassifyAggPattern(p punct.Pattern, groupIdx []int, valueIdx int) AggShape {
	bindsGroup, bindsValue := false, false
	inGroup := map[int]bool{}
	for _, g := range groupIdx {
		inGroup[g] = true
	}
	for _, b := range p.Bound() {
		switch {
		case b == valueIdx:
			bindsValue = true
		case inGroup[b]:
			bindsGroup = true
		default:
			// Attribute outside the partition (e.g. a carried window id)
			// is treated as a grouping attribute for classification.
			bindsGroup = true
		}
	}
	switch {
	case bindsGroup && bindsValue:
		return AggShapeMixed
	case bindsGroup:
		return AggShapeGroup
	case !bindsValue:
		return AggShapeNone
	}
	switch p.Pred(valueIdx).Op {
	case punct.GE, punct.GT:
		return AggShapeValueUp
	case punct.LE, punct.LT:
		return AggShapeValueDown
	default:
		return AggShapeValueEQ
	}
}

// AggCharacterization produces the Table 1 response plan for an aggregate
// of the given kind receiving assumed pattern p. groupIdx/valueIdx locate
// the partition in the OUTPUT schema; inputMap maps output attributes to
// the aggregate's input schema (computed attributes map to -1).
//
// Table 1 rows (COUNT), generalized by monotonicity:
//
//	¬[g,*]   → purge group g, guard input on g, propagate g upstream
//	¬[*,a]   → guard output only
//	¬[*,≥a]  → (monotone-up aggregates) purge groups already matching,
//	           guard input for those groups, propagate the group set;
//	           (others) guard output only
//	¬[*,≤a]  → guard output only for monotone-up; symmetric purge for
//	           monotone-down aggregates (MIN)
//	mixed    → guard output only
//
// SUM is not monotone-up (§3.5: "COUNT's produced result increases
// monotonically, SUM's doesn't"), so a value bound on it guards the output.
func AggCharacterization(kind AggKind, shape AggShape, p punct.Pattern, inputMap AttrMap) ResponsePlan {
	switch shape {
	case AggShapeGroup:
		plan := ResponsePlan{
			Actions:     []Action{ActPurgeState, ActGuardInput},
			Explanation: "group-bound: remove group from local state, guard input on the group, propagate in input-schema terms",
		}
		if prop := SafePropagation(p, inputMap); prop.OK {
			plan.Actions = append(plan.Actions, ActPropagate)
			pat := prop.Pattern
			plan.Propagate = []*punct.Pattern{&pat}
		} else {
			plan.Propagate = []*punct.Pattern{nil}
			plan.Explanation += " (propagation refused: " + prop.Reason + ")"
		}
		return plan
	case AggShapeValueUp:
		if kind.MonotoneUp() {
			return ResponsePlan{
				Actions:     []Action{ActPurgeState, ActGuardInput, ActCloseWindows},
				Propagate:   []*punct.Pattern{nil},
				Explanation: "upward-closed value bound on a monotone-up aggregate: groups already matching can never unmatch — purge them, guard their input; no propagation (future inputs could still create small groups)",
			}
		}
		return ResponsePlan{
			Actions:     []Action{ActGuardOutput},
			Propagate:   []*punct.Pattern{nil},
			Explanation: "value bound on a non-monotone aggregate: only the output may be guarded (state may drop back out of the subset)",
		}
	case AggShapeValueDown:
		if kind.MonotoneDown() {
			return ResponsePlan{
				Actions:     []Action{ActPurgeState, ActGuardInput, ActCloseWindows},
				Propagate:   []*punct.Pattern{nil},
				Explanation: "downward-closed value bound on a monotone-down aggregate: symmetric to COUNT/≥",
			}
		}
		return ResponsePlan{
			Actions:     []Action{ActGuardOutput},
			Propagate:   []*punct.Pattern{nil},
			Explanation: "downward-closed value bound: guard output only (a purge would be incorrect — the aggregate can still move)",
		}
	case AggShapeValueEQ, AggShapeMixed:
		return ResponsePlan{
			Actions:     []Action{ActGuardOutput},
			Propagate:   []*punct.Pattern{nil},
			Explanation: "exact/mixed bound: guard output only",
		}
	default:
		return ResponsePlan{
			Actions:     []Action{ActNone},
			Propagate:   []*punct.Pattern{nil},
			Explanation: "no bound attributes: null response",
		}
	}
}

// ---------------------------------------------------------------------------
// Table 2: JOIN (output schema partitioned (L, J, R)).
// ---------------------------------------------------------------------------

// JoinShape classifies an assumed pattern against a join's output partition.
type JoinShape uint8

const (
	// JoinShapeJ binds only join attributes: ¬[*, j, *].
	JoinShapeJ JoinShape = iota
	// JoinShapeL binds only left-unique attributes: ¬[l, *, *].
	JoinShapeL
	// JoinShapeR binds only right-unique attributes: ¬[*, *, r].
	JoinShapeR
	// JoinShapeLJ binds left and join attributes (propagable left only).
	JoinShapeLJ
	// JoinShapeJR binds join and right attributes (propagable right only).
	JoinShapeJR
	// JoinShapeLR binds attributes from both sides with no common carrier:
	// ¬[l, *, r] — guard output only (the paper's unsafe case).
	JoinShapeLR
	// JoinShapeNone binds nothing.
	JoinShapeNone
)

// JoinPartition locates the output-schema partition of a join.
type JoinPartition struct {
	Left  []int // output indices unique to the left input
	Join  []int // output indices of join attributes (carried by both)
	Right []int // output indices unique to the right input
}

// ClassifyJoinPattern classifies pattern p against the partition.
func ClassifyJoinPattern(p punct.Pattern, part JoinPartition) JoinShape {
	in := func(set []int, x int) bool {
		for _, s := range set {
			if s == x {
				return true
			}
		}
		return false
	}
	var l, j, r bool
	for _, b := range p.Bound() {
		switch {
		case in(part.Join, b):
			j = true
		case in(part.Left, b):
			l = true
		case in(part.Right, b):
			r = true
		}
	}
	switch {
	case l && r:
		return JoinShapeLR
	case l && j:
		return JoinShapeLJ
	case j && r:
		return JoinShapeJR
	case j:
		return JoinShapeJ
	case l:
		return JoinShapeL
	case r:
		return JoinShapeR
	}
	return JoinShapeNone
}

// JoinCharacterization produces the Table 2 response plan for a join
// receiving assumed pattern p. leftMap/rightMap map output attributes to
// the left/right input schemas.
//
// Table 2 rows:
//
//	¬[*,j,*] → purge matching tuples from both hash tables, guard input,
//	           propagate ¬[*,j] left and ¬[j,*] right
//	¬[l,*,*] → purge matching from left table, guard input,
//	           propagate ¬[l,*] to left
//	¬[*,*,r] → purge matching from right table, guard input,
//	           propagate ¬[*,r] to right
//	¬[l,*,r] → guard output only (no safe propagation exists)
func JoinCharacterization(shape JoinShape, p punct.Pattern, leftMap, rightMap AttrMap) ResponsePlan {
	props := SafePropagationMulti(p, []AttrMap{leftMap, rightMap})
	toPtr := func(pr Propagation) *punct.Pattern {
		if !pr.OK {
			return nil
		}
		pat := pr.Pattern
		return &pat
	}
	switch shape {
	case JoinShapeJ:
		return ResponsePlan{
			Actions:     []Action{ActPurgeState, ActGuardInput, ActPropagate},
			Propagate:   []*punct.Pattern{toPtr(props[0]), toPtr(props[1])},
			Explanation: "join-attribute bound: purge both hash tables, guard both inputs, propagate to both inputs",
		}
	case JoinShapeL, JoinShapeLJ:
		return ResponsePlan{
			Actions:     []Action{ActPurgeState, ActGuardInput, ActPropagate},
			Propagate:   []*punct.Pattern{toPtr(props[0]), nil},
			Explanation: "left-side bound: purge left hash table, guard left input, propagate to left input",
		}
	case JoinShapeR, JoinShapeJR:
		return ResponsePlan{
			Actions:     []Action{ActPurgeState, ActGuardInput, ActPropagate},
			Propagate:   []*punct.Pattern{nil, toPtr(props[1])},
			Explanation: "right-side bound: purge right hash table, guard right input, propagate to right input",
		}
	case JoinShapeLR:
		return ResponsePlan{
			Actions:     []Action{ActGuardOutput},
			Propagate:   []*punct.Pattern{nil, nil},
			Explanation: "bound on both sides with no single carrier: guard output only — propagating either projection could suppress tuples outside the subset (¬[50,*,*,50] example)",
		}
	default:
		return ResponsePlan{
			Actions:     []Action{ActNone},
			Propagate:   []*punct.Pattern{nil, nil},
			Explanation: "no bound attributes: null response",
		}
	}
}

// PlanString renders a response plan as a table row for `cmd/experiments tables`.
func (p ResponsePlan) PlanString() string {
	acts := ""
	for i, a := range p.Actions {
		if i > 0 {
			acts += ", "
		}
		acts += a.String()
	}
	prop := ""
	for i, pp := range p.Propagate {
		if i > 0 {
			prop += "; "
		}
		if pp == nil {
			prop += fmt.Sprintf("input %d: —", i)
		} else {
			prop += fmt.Sprintf("input %d: ¬%s", i, pp.String())
		}
	}
	if prop == "" {
		prop = "—"
	}
	return fmt.Sprintf("exploit: %-45s propagate: %s", acts, prop)
}
