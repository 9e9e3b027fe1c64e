// Package blockdev stands in for the media: only Snapshot copies a whole
// image. It brings back a copy on the sync path.
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
