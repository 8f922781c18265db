package store

// The manifest head/sidecar split, for the external fuzz target.
var (
	SplitProfile = splitProfile
	JoinProfile  = joinProfile
)
