package main

import (
	"context"
	"fmt"

	"learnedsqlgen/client"
	"learnedsqlgen/internal/estimator"
	"learnedsqlgen/internal/parser"
	"learnedsqlgen/internal/rl"
)

// constraintOf converts a wire request into the constraint the server
// resolves it to.
func constraintOf(r client.Request) rl.Constraint {
	m := rl.Cardinality
	if r.Metric == "cost" {
		m = rl.Cost
	}
	if r.IsRange {
		return rl.RangeConstraint(m, r.Lo, r.Hi)
	}
	return rl.PointConstraint(m, r.Point)
}

// checkRow verifies one generated query independently of the generator:
// it must re-parse, and the raw estimator's value for the re-parsed
// statement must satisfy the constraint it was generated for.
func checkRow(est *estimator.Estimator, c rl.Constraint, sql string) error {
	st, err := parser.Parse(sql)
	if err != nil {
		return fmt.Errorf("row does not re-parse (%v): %q", err, sql)
	}
	e, err := est.EstimateContext(context.Background(), st)
	if err != nil {
		return fmt.Errorf("row does not re-estimate (%v): %q", err, sql)
	}
	v := e.Card
	if c.Metric == rl.Cost {
		v = e.Cost
	}
	if !c.Satisfied(v) {
		return fmt.Errorf("row re-estimates to %g, outside %v: %q", v, c, sql)
	}
	return nil
}
