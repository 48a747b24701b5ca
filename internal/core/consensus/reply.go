package consensus

// Reply keeps one message boxed for as long as it does not change. A
// process that answers many messages with the same reply — a phase 1b to
// every heartbeat phase 1a of one ballot, Decided to every straggler, a
// retransmit of an unchanged stage message — would otherwise box a fresh
// copy for every send. Messages are immutable once sent (see Message), so
// every send may share the one box.
//
// The zero value is ready to use.
type Reply[M interface {
	comparable
	Message
}] struct {
	box Message // the last message Box returned; nil before the first
}

// Box returns m as a Message: the box it returned last time when m equals
// the message it was given then, a new one otherwise.
func (r *Reply[M]) Box(m M) Message {
	if last, ok := r.box.(M); !ok || last != m {
		r.box = m
	}
	return r.box
}
