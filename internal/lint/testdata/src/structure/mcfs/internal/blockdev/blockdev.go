// Package blockdev stands in for the media: only Snapshot copies a whole
// image, only tests and the benchmark call the image copies, and a new
// medium holds no page. It brings back a copy on the sync path and an
// image in the constructors.
package blockdev

// store is a medium's pages.
type store struct {
	size  int64
	table [][]byte
}

func newStore(size int64) store {
	return store{size: size, table: make([][]byte, size/4096)} // per-page metadata is allowed
}

// read copies the medium out.
func (s *store) read(dst []byte) {}

// Disk is a block device.
type Disk struct{ s store }

// NewDisk returns a blank disk: it allocates no image.
func NewDisk(size int64) *Disk { return &Disk{s: newStore(size)} }

// NewFlatDisk brings back a flat image in a constructor other than the
// ones the row names: the whole-image row catches it.
func NewFlatDisk(d *Disk) []byte {
	return make([]byte, d.Size()) // want "make\(\[\]byte, d\.Size\(\)\): only Snapshot copies a"
}

// Size is the medium's capacity.
func (d *Disk) Size() int64 { return d.s.size }

// Snapshot copies the image: allowed.
func (d *Disk) Snapshot() []byte {
	img := make([]byte, d.s.size)
	d.s.read(img)
	return img
}

// Sync copies the image: a mutant.
func (d *Disk) Sync() []byte {
	buf := make([]byte, 512) // a block buffer is not an image
	_ = buf
	img := make([]byte, d.s.size) // want "make\(\[\]byte, d\.s\.size\): only Snapshot copies a"
	d.s.read(img)
	return img
}

// Restore writes an image back: the engine must not call it.
func (d *Disk) Restore(img []byte) {}

// LoadImage installs an image uncharged: the engine must not call it.
func (d *Disk) LoadImage(img []byte) {}

// LoadImageDelta installs part of an image: the engine must not call it.
func (d *Disk) LoadImageDelta(img []byte, off, n int) {}

// OpenFrame checkpoints without a copy: what the engine calls.
func (d *Disk) OpenFrame(key uint64) {}

// MTD is a flash device.
type MTD struct{ s store }

// NewMTD brings back the flat image it once allocated: a mutant.
func NewMTD(size int64) *MTD {
	img := make([]byte, size) // want "make\(\[\]byte, size\): a new medium is blank and holds no page"
	_ = img
	return &MTD{s: newStore(size)}
}

// LoadImage installs an image uncharged: the engine must not call it.
func (m *MTD) LoadImage(img []byte) {}
