package mqtt

// FillPending marks every packet id as awaiting an acknowledgement, as a
// client with 65 535 requests in flight would have them.
func (c *Client) FillPending() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id := 1; id <= 0xFFFF; id++ {
		c.pending[uint16(id)] = &pendingAck{ch: make(chan struct{})}
	}
}
