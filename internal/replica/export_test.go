package replica

// LockCache takes the lock of the cache's record log, so that the tail loop
// parks in its next cache write; the returned func releases it.
func (r *Replica) LockCache() (unlock func()) {
	r.tailMu.Lock()
	return r.tailMu.Unlock
}

// SetMaxFetchBytes lowers the cap on one fetch's body to n until the
// returned func restores it. Set it before any replica runs: the tail loop
// reads it unsynchronised.
func SetMaxFetchBytes(n int64) (restore func()) {
	old := maxFetchBytes
	maxFetchBytes = n
	return func() { maxFetchBytes = old }
}
