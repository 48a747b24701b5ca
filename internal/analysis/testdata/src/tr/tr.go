// Package tr is the tracelint fixture: slow-path collector calls reachable
// from //repro:hotpath roots, including through intra-package helpers.
package tr

import "repro/internal/analysis/testdata/src/tracestub"

type router struct {
	c      *tracestub.Collector
	sentID int
}

// route is the hot root.
//
//repro:hotpath
func (r *router) route(msg string) {
	r.c.SentID(r.sentID) // fast path: fine
	r.c.MessageSent(msg) // want `c.MessageSent is the string-keyed slow path, called from \*router.route; use Intern \+ SentID`
	r.helper(msg)
	r.logDrop(msg)
}

// helper is not annotated but is reachable from route.
func (r *router) helper(msg string) {
	r.c.ObserveLatency("hop", 1) // want `called from \*router.helper \(reachable from //repro:hotpath \*router.route\); use InternHist \+ ObserveHistID`
}

// logDrop is reachable too; Emit and Logf are both slow.
func (r *router) logDrop(msg string) {
	r.c.Emit("drop", 1) // want `c.Emit is the string-keyed slow path`
}

// report is NOT reachable from any hot root; the slow path is fine here.
func (r *router) report() {
	r.c.MessageDelivered("final")
	r.c.Logf("done %s", "x")
}
