package sim

// Redilated reports how many running jobs e's re-dilations have visited
// so far.
func Redilated(e *Engine) int { return e.redilated }
