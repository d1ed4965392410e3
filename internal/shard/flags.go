package shard

import (
	"fmt"
	"time"
)

// maxSaneBatch bounds -max-batch: beyond this, a single scan fanning to
// that many engines is a misconfiguration, not a workload.
const maxSaneBatch = 4096

// maxSaneWindow bounds -window: a batch window is a latency trade
// measured in milliseconds; anything over a minute holds every query
// that waits for companions hostage.
const maxSaneWindow = time.Minute

// CheckServingFlags is the startup gate for the serving flags fluxd and
// fluxrouter's embedded shards share: -window, -max-batch and
// -max-resident-buffer. flux.ExecutorOptions reads a zero window or
// batch as "use the default" and flux.CatalogOptions reads a budget of
// 0 as unlimited, so a value the operator typed must be refused here,
// with an error naming its flag, rather than silently replaced.
func CheckServingFlags(window time.Duration, maxBatch int, maxResident int64) error {
	if maxResident < 0 {
		return fmt.Errorf("-max-resident-buffer must be non-negative (0 = unlimited), got %d", maxResident)
	}
	if window <= 0 {
		// Accepting 0 would silently re-introduce the 2ms default.
		return fmt.Errorf("-window must be positive (it bounds how long a query waits for companions while queries outnumber processors; a query that finds a processor free dispatches at once), got %s", window)
	}
	if window > maxSaneWindow {
		return fmt.Errorf("-window %s is absurd: batches would hold requests for over %s", window, maxSaneWindow)
	}
	if maxBatch <= 0 {
		return fmt.Errorf("-max-batch must be positive, got %d", maxBatch)
	}
	if maxBatch > maxSaneBatch {
		return fmt.Errorf("-max-batch %d is absurd (limit %d)", maxBatch, maxSaneBatch)
	}
	return nil
}
