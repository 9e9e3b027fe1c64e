package obs

// SetSampleEvery is the deleted telemetry knob, declared in a test.
func (h *Hub) SetSampleEvery(n int) {} // want "SetSampleEvery: an engine has one"
