package sched

// ResumedPasses reports how many of b's passes resumed the previous
// one.
func ResumedPasses(b *Batch) int { return b.st.resumed }

// PlanningWork reports b's planning work so far: the passes it ran in
// full, and its conservative profile's searches, breakpoints those
// searches visited, and breakpoints its splits moved.
func PlanningWork(b *Batch) (full, searches, visited, moved int) {
	p := &b.st.prof
	return b.st.full, p.searches, p.visited, p.moved
}
