package mc

import "mcfs/internal/blockdev"

// rollback checkpoints with a frame, which is allowed, and brings back
// the whole-image copies it replaced: mutants.
func (e *engine) rollback(d *blockdev.Disk, m *blockdev.MTD) {
	d.OpenFrame(1)
	img := d.Snapshot() // want "\(\*mcfs/internal/blockdev\.Disk\)\.Snapshot: the engine checkpoints with a frame"
	d.Restore(img)      // want "\(\*mcfs/internal/blockdev\.Disk\)\.Restore: the engine checkpoints with a frame"
	d.LoadImage(img)    // want "\(\*mcfs/internal/blockdev\.Disk\)\.LoadImage: the engine checkpoints with a frame"
	load := m.LoadImage // want "\(\*mcfs/internal/blockdev\.MTD\)\.LoadImage: the engine checkpoints with a frame"
	load(img)
}
