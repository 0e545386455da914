package core

// Test helpers exported to the external core_test package, whose tests
// build sessions with the attack package (attack imports core, so core's
// own tests cannot).
var (
	FullSystemForTest     = fullSystem
	FeedStreamForTest     = feedStream
	RebuiltSessionForTest = rebuiltSession
)
