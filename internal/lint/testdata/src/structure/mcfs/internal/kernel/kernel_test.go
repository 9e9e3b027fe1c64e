package kernel

// A test file is read by syntax: a declaration here is a finding too.
type restoreHooker interface { // want "restoreHooker: one checkpoint interface, no"
	SetOnRestore(func()) // want "SetOnRestore: one checkpoint interface, no"
}
