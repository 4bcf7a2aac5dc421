package kvstore

// Tickets issues one client's data I/Os for ticketed requests (see
// workload.Submit and core.IOSender) and hands each completed I/O's
// ticket to Done. A tenant's data I/Os all ride one QP in one service
// class (cached GETs and record WRITEs are both bulk; two-sided replies
// are served FIFO by the server CPU), so they complete in issue order
// and a FIFO of plain tickets matches them, with no callback per I/O.
type Tickets struct {
	kv      *Client
	pending fifo[uint32]
	// Done receives each completed I/O's ticket; set it before the first
	// I/O (an engine's Complete or a generator's).
	Done    func(ticket uint32)
	onGetFn func([]byte, error)
	onPutFn func(error)
}

// NewTickets wraps kv.
func NewTickets(kv *Client) *Tickets {
	t := &Tickets{kv: kv}
	t.onGetFn = func([]byte, error) { t.Done(t.pending.pop()) }
	t.onPutFn = func(error) { t.Done(t.pending.pop()) }
	return t
}

// Get issues a one-sided GET of key for ticket.
func (t *Tickets) Get(key uint64, ticket uint32) error {
	t.pending.push(ticket)
	return t.dropOnErr(t.kv.Get(key, t.onGetFn))
}

// GetTwoSided issues a two-sided RPC GET of key for ticket.
func (t *Tickets) GetTwoSided(key uint64, ticket uint32) error {
	t.pending.push(ticket)
	return t.dropOnErr(t.kv.GetTwoSided(key, t.onGetFn))
}

// Update issues a one-sided record WRITE of value under key for ticket.
func (t *Tickets) Update(key uint64, value []byte, ticket uint32) error {
	t.pending.push(ticket)
	return t.dropOnErr(t.kv.Update(key, value, t.onPutFn))
}

// dropOnErr drops the newest ticket if its kv call failed (no callback
// follows an error); pushing first lets a call complete synchronously.
func (t *Tickets) dropOnErr(err error) error {
	if err != nil {
		t.pending.items = t.pending.items[:len(t.pending.items)-1]
	}
	return err
}
