// Package memmodel stands in for the memory model, which reads the
// set's size. It brings back the ledger.
package memmodel

// Model is the memory model.
type Model struct{ bytes int64 }

// AttachMem is the deleted ledger hook.
func (m *Model) AttachMem() {} // want "AttachMem: a memory model reads"
