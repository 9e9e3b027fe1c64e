// Package blockdev stands in for the media: only Snapshot copies a whole
// image, and only tests and the benchmark call the image copies. It
// brings back a copy on the sync path.
package blockdev

// Disk is a block device.
type Disk struct{ data []byte }

// Snapshot copies the image: allowed.
func (d *Disk) Snapshot() []byte {
	img := make([]byte, len(d.data))
	copy(img, d.data)
	return img
}

// Sync copies the image: a mutant.
func (d *Disk) Sync() []byte {
	buf := make([]byte, 512) // a block buffer is not an image
	_ = buf
	img := make([]byte, len(d.data)) // want "make\(\[\]byte, len\(d\.data\)\): only Snapshot copies a"
	copy(img, d.data)
	return img
}

// Restore writes an image back: the engine must not call it.
func (d *Disk) Restore(img []byte) { copy(d.data, img) }

// LoadImage installs an image uncharged: the engine must not call it.
func (d *Disk) LoadImage(img []byte) { copy(d.data, img) }

// LoadImageDelta installs part of an image: the engine must not call it.
func (d *Disk) LoadImageDelta(img []byte, off, n int) { copy(d.data[off:off+n], img[off:]) }

// OpenFrame checkpoints without a copy: what the engine calls.
func (d *Disk) OpenFrame(key uint64) {}

// MTD is a flash device.
type MTD struct{ data []byte }

// LoadImage installs an image uncharged: the engine must not call it.
func (m *MTD) LoadImage(img []byte) { copy(m.data, img) }
