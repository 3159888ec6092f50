package apps

import "time"

// Calibrate measures how many kernel units run per microsecond on this
// host, so experiments can express stage costs in time.
func Calibrate() float64 {
	const probe = 2_000_000
	start := time.Now()
	Burn(probe)
	elapsed := time.Since(start)
	if elapsed <= 0 {
		return float64(probe)
	}
	return float64(probe) / float64(elapsed.Microseconds()+1)
}
