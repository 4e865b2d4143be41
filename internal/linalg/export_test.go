package linalg

// CheckAgainstReference exposes the reference-analysis comparison to the
// external tests, which build patterns from netlists.
var CheckAgainstReference = checkAgainstRef
