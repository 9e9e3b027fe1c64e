package blockdev

// TakeCrashImage is the deleted whole-image capture API, declared in a
// test.
func (d *Disk) TakeCrashImage() []byte { return d.Snapshot() } // want "TakeCrashImage: every persisted window write"
