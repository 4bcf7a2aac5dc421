package cluster

import (
	"runtime"
	"testing"

	"github.com/haechi-qos/haechi/internal/workload"
)

// TestClusterHotPathNoAlloc pins the request path's allocation budget end
// to end: once warm, a Haechi cluster allocates at most one object per
// hundred kernel events. One tenant posts its whole period demand at
// once (the post-all backlog of the QoS experiments), the other issues
// at a constant rate with half its requests as 4 KB record WRITEs and
// claims global tokens for demand above its reservation. So the window
// covers the generator's ticket pool, the engine queues, the per-client
// ticket FIFO, tickers, token claims and reports, and recycled WRITE
// payloads.
func TestClusterHotPathNoAlloc(t *testing.T) {
	cl, err := New(testConfig(Haechi), []ClientSpec{
		{Reservation: 3500, Demand: ConstantDemand(3500), Pattern: workload.Burst{}},
		{Reservation: 3000, Demand: ConstantDemand(3800), Pattern: workload.ConstantRate{},
			Keys: &workload.UniformKeys{N: 512}, UpdateFraction: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	T := cl.Config().Params.Period
	k := cl.Kernel()
	var before, after runtime.MemStats
	var eventsBefore, eventsAfter uint64
	// The window spans two period boundaries, well after every queue
	// reached its high-water mark in the first periods.
	cl.At(3*T+T/2, func() {
		runtime.GC()
		runtime.ReadMemStats(&before)
		eventsBefore = k.Executed()
	})
	cl.At(5*T+T/2, func() {
		runtime.ReadMemStats(&after)
		eventsAfter = k.Executed()
	})
	res, err := cl.Run(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range res.Clients {
		if c.MinPeriod == 0 {
			t.Fatalf("client %d completed nothing in some period", i)
		}
	}
	events := eventsAfter - eventsBefore
	if events < 50_000 {
		t.Fatalf("measured window ran only %d events", events)
	}
	mallocs := after.Mallocs - before.Mallocs
	t.Logf("%d mallocs over %d events", mallocs, events)
	if perEvent := float64(mallocs) / float64(events); perEvent > 0.01 {
		t.Errorf("%d mallocs over %d events = %.4f per event, want <= 0.01", mallocs, events, perEvent)
	}
}
