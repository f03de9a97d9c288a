package gpu

// SetPerCycle turns off sim's quiescence caches, so every SM runs its full
// tick every cycle: the reference the cache is checked against.
func SetPerCycle(sim *Simulator) { sim.perCycle = true }
