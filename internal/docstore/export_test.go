package docstore

// reorganizations reports how many times the collection has rewritten its
// slabs and renumbered its slots.
func (c *Collection) reorganizations() (compactions, renumberings int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.compactions, c.renumberings
}
