package extfs

import (
	"mcfs/internal/blockdev"
	"mcfs/internal/fault"
)

// StateCompareMask returns the media byte ranges that two extfs images
// may differ in while still representing the same file-system state:
//
//   - the superblock flags word (the dirty bit toggles per mount cycle),
//   - the superblock mount counter (monotonically increases, so no two
//     remount cycles ever produce byte-identical superblocks),
//   - the journal region (replayed transactions leave stale log records
//     behind; recovery semantics live in the home locations).
//
// The crash oracle's fast path compares recovered media against
// reference snapshots modulo these regions: neither Fsck nor the
// abstraction hash reads the masked bytes, so masked-equal images get
// identical verdicts. The mask is computed from the volume's own
// superblock, so it is valid for any image of the same geometry.
func StateCompareMask(dev blockdev.Reader) ([]fault.Region, error) {
	sbBuf := make([]byte, BlockSize)
	if err := dev.ReadAt(sbBuf, 0); err != nil {
		return nil, err
	}
	sb, err := decodeSuperblock(sbBuf)
	if err != nil {
		return nil, err
	}
	l := computeLayout(sb.blocksTotal, sb.inodesTotal, sb.journalLen)
	mask := []fault.Region{
		{Off: sbFlagsOff, Len: 4},
		{Off: sbMountCntOff, Len: 4},
	}
	if l.journalLen > 0 {
		mask = append(mask, fault.Region{
			Off: int64(l.journal) * BlockSize,
			Len: int64(l.journalLen) * BlockSize,
		})
	}
	return mask, nil
}
