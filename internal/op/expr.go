package op

import "repro/internal/punct"

// Expr, ExprStep and NewExpr name punct's compiled predicate conjunction
// under its old package.
//
// bench/ only: kept so that the benchmark module compiles; goes with
// ROADMAP item 1a. Engine code uses punct.Expr.
type (
	Expr     = punct.Expr
	ExprStep = punct.ExprStep
)

// NewExpr is punct.NewExpr (bench/ only; goes with ROADMAP item 1a).
func NewExpr(arity int, steps ...ExprStep) (*Expr, error) { return punct.NewExpr(arity, steps...) }
