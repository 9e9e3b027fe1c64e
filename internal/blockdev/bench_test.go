package blockdev

import (
	"bytes"
	"fmt"
	"testing"

	"mcfs/internal/simclock"
)

// BenchmarkFrameCycle times one root checkpoint's life, a frame opened,
// four pages written and the frame rewound, on a 256 KiB disk and on a
// 64 MiB one. A frame does work in the pages written, so the two sizes
// cost the same.
func BenchmarkFrameCycle(b *testing.B) {
	page := bytes.Repeat([]byte{1}, cachePage)
	for _, size := range []int64{256 << 10, 64 << 20} {
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			d := NewRAM("ram0", size, simclock.New())
			frameCycle(b, d, 4, page)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				frameCycle(b, d, 4, page)
			}
		})
	}
}
