package replica

// TailFile is the cache's record log, for tests that stand in front of it.
type TailFile = tailFile

// WrapTail puts wrap(tail) in place of the replica's open record log.
func (r *Replica) WrapTail(wrap func(TailFile) TailFile) {
	r.tailMu.Lock()
	defer r.tailMu.Unlock()
	r.tail = wrap(r.tail)
}
