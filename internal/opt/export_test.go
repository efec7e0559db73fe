package opt

// HasSideEffects exposes hasSideEffects to the external tests.
var HasSideEffects = hasSideEffects
