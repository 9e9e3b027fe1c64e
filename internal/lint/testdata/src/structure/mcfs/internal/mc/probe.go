package mc

import (
	"mcfs/internal/obs"
	"mcfs/internal/obs/journal"
)

// probe is the one event seam: guards and timers are allowed here.
type probe struct {
	hub *obs.Hub
	jr  *journal.Recorder
	es  int
}

func (p *probe) executed() {
	if p.jr.Enabled() {
		p.hub.Record("execute", 0)
	}
	p.es++
}
