package cluster

// Home reports the card a function is pinned to (-1 = any, replicate
// and affinity modes; -2 = unknown function).
func (cl *Cluster) Home(fn uint16) int {
	h, ok := cl.home[fn]
	if !ok {
		return -2
	}
	return h
}

// Affinity reports the card the affinity router has pinned a stage list
// (one function, or a whole chain) to, or -1 if it has not been routed
// yet (or the mode keeps no pins).
func (cl *Cluster) Affinity(stages ...uint16) int {
	key, err := newStageList(stages)
	if err != nil {
		return -1
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if c, ok := cl.affinity[key]; ok {
		return c
	}
	return -1
}
