package trace

// StringKeyedTypes reports how many message types the string-keyed counter
// table holds: zero until something calls MessageSent, MessageDelivered or
// MessageDropped.
func StringKeyedTypes(c *Collector) int { return len(c.table()) }
