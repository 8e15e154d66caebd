package consensus

// Mailbox carries one Cluster's messages between delivery rounds. Two
// buffers trade places: nodes append what they send to Out, through
// Node.Tick, Step, Propose and TransferLeadership, while the Cluster
// delivers the batch Swap returned. A warm group sends and delivers
// without allocating.
type Mailbox struct {
	Out  []Message // sent since the last Swap
	back []Message // the batch the last Swap returned
}

// Swap returns everything sent since the last call, the batch to deliver
// now, valid until the next call. Out restarts on the buffer of the batch
// before, cleared first so that delivered messages stop pinning entries
// and snapshots. A pump loops until Swap returns nothing, which also
// leaves both buffers clear.
func (mb *Mailbox) Swap() []Message {
	clear(mb.back)
	mb.Out, mb.back = mb.back[:0], mb.Out
	return mb.back
}
