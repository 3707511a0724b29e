package interp

// Test-only exports for the external interp_test package.
var (
	ReferenceRun = referenceRun
	DiffRun      = diffRun
	WideTwin     = wideTwin
)
