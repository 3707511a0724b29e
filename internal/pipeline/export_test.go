package pipeline

import "pathsched/internal/validate"

// NewRunnerWithBudgets is NewRunner with the translation validator run
// under budgets vo instead of its defaults, so that a test can force
// compiles to Bounded.
func NewRunnerWithBudgets(opts Options, vo validate.Options) *Runner {
	r := NewRunner(opts)
	r.budgets = vo
	return r
}
