package fuse

import (
	"testing"

	"mcfs/internal/errno"
	"mcfs/internal/fs/verifs2"
	"mcfs/internal/simclock"
)

// BenchmarkRoundTrip measures one kernel<->server message exchange, the
// per-operation overhead every FUSE file system pays.
func BenchmarkRoundTrip(b *testing.B) {
	clk := simclock.New()
	srv := NewServer(verifs2.New(clk), ServerOptions{})
	c := NewClient(srv, clk)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, e := c.Getattr(c.Root()); e != errno.OK {
			b.Fatal(e)
		}
	}
}

func BenchmarkWriteThroughFUSE(b *testing.B) {
	clk := simclock.New()
	srv := NewServer(verifs2.New(clk), ServerOptions{})
	c := NewClient(srv, clk)
	ino, e := c.Create(c.Root(), "file", 0644, 0, 0)
	if e != errno.OK {
		b.Fatal(e)
	}
	buf := make([]byte, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, e := c.Write(ino, 0, buf); e != errno.OK {
			b.Fatal(e)
		}
	}
}
