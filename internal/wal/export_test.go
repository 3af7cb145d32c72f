package wal

// SetMaxPayload lowers the frame cap to n until the returned func restores
// it, so that tests reach ErrTooLarge without 64 MiB edits.
func SetMaxPayload(n int) (restore func()) {
	maxPayload = n
	return func() { maxPayload = MaxPayload }
}
