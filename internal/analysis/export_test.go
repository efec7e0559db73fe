package analysis

// The engine instances, for the recycling test in package analysis_test.
var (
	BoundsProblem    = boundsProblem
	HeightsProblem   = heightsProblem
	DeadStoreProblem = deadStoreProblem
	InitProblem      = initProblem
)
