package check

import (
	"pathsched/internal/ir"
	"pathsched/internal/validate"
)

// Equiv runs the symbolic translation validator over a (pristine,
// transformed) program pair and reports every semantic divergence as a
// Violation, alongside the full per-procedure report (verdicts,
// Bounded reasons, cut counts).
//
// It is the semantic counterpart of the structural checks in this
// package: Schedules and friends verify the transformed program is
// well-formed and honours dependences and resources; Equiv proves it
// computes the same thing as the program the pipeline started from. A
// Bounded verdict produces no Violation — those procedures fall back
// to the structural checks, and the caller decides whether the
// explicit Bounded count is acceptable.
func Equiv(pristine, transformed *ir.Program, opts validate.Options) (*validate.Report, []Violation) {
	rep := validate.Program(pristine, transformed, opts)
	return rep, divergences(rep.Issues)
}

// EquivProc is Equiv for one procedure pair (validate.Proc), with scr
// the validator's reusable working memory.
func EquivProc(pristine, transformed *ir.Proc, opts validate.Options, scr *validate.Scratch) (validate.ProcReport, []Violation) {
	pr, issues := validate.Proc(pristine, transformed, opts, scr)
	return pr, divergences(issues)
}

// divergences converts validator issues to Violations.
func divergences(issues []validate.Issue) []Violation {
	var vs []Violation
	for _, is := range issues {
		vs = append(vs, Violation{Proc: is.Proc, Block: is.Block, Instr: is.Instr, Msg: is.Msg})
	}
	return vs
}
