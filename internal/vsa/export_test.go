package vsa

// ProblemOf is the engine instance of Analyze, for the recycling test in
// package vsa_test.
var ProblemOf = problem
