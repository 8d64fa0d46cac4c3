package sched

// ResumedPasses reports how many of b's passes resumed the previous
// one.
func ResumedPasses(b *Batch) int { return b.st.resumed }
