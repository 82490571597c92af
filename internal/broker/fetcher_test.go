package broker

import "testing"

// TestFetcherAssignAfterStopAllStartsNothing: a partition-state update that
// races broker shutdown must not start a replica fetcher once stopAll has
// run, or its goroutine outlives the broker.
func TestFetcherAssignAfterStopAllStartsNothing(t *testing.T) {
	m := newFetcherManager(&Broker{})
	m.stopAll()
	m.assign(tp{topic: "t", partition: 0}, 2)
	defer m.stopAll()
	m.mu.Lock()
	n := len(m.fetchers)
	m.mu.Unlock()
	if n != 0 {
		t.Fatalf("assign after stopAll started %d fetcher(s)", n)
	}
}
