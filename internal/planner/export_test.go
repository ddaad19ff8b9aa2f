package planner

import "sma/internal/exec"

// Binding returns the plan's aggregate binding, nil when it has none.
func (p *Plan) Binding() *exec.AggBinding { return p.bound }
