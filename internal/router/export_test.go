package router

import (
	"context"
	"time"
)

// RouteStatus exposes routeStatus to the external tests.
var RouteStatus = routeStatus

// Candidates builds key's candidate list the way route does, on a stack
// array, and returns its length.
func (r *Router) Candidates(key uint16) int {
	var buf [stackCands]*backend
	cands, _ := r.candidates(buf[:0], key)
	return len(cands)
}

// Call routes one request through the fleet, returning the output and
// the serving backend card. The context deadline bounds routing,
// retries, and the forwarded budget. Non-OK backend statuses surface
// as *client.StatusError, exactly as a direct client call would.
func (r *Router) Call(ctx context.Context, fn uint16, payload []byte) ([]byte, int, error) {
	ref := r.opts.Tracer.StartRoot("route", "router", fn)
	start := time.Now()
	out, card, backendNS, err := r.route(ctx, []uint16{fn}, payload, nil, ref)
	r.observeRoute(start, backendNS, err, ref.TraceID)
	r.opts.Tracer.End(ref, routeStatus(err))
	return out, card, err
}
