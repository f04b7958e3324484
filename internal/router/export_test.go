package router

// RouteStatus exposes routeStatus to the external tests.
var RouteStatus = routeStatus

// Candidates builds key's candidate list the way route does, on a stack
// array, and returns its length.
func (r *Router) Candidates(key uint16) int {
	var buf [stackCands]*backend
	cands, _ := r.candidates(buf[:0], key)
	return len(cands)
}
