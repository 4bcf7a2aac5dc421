package multiserver

import (
	"math/rand"
	"testing"

	"github.com/haechi-qos/haechi/internal/workload"
)

// scaled capacities: each server 15.7K/period, client NIC 4K/period.
func testConfig(servers int) Config {
	return Config{
		Servers:          servers,
		Scale:            100,
		RecordsPerServer: 128,
		Seed:             5,
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Servers: 0}, []ClientSpec{{}}); err == nil {
		t.Error("zero servers accepted")
	}
	if _, err := New(testConfig(2), nil); err == nil {
		t.Error("no clients accepted")
	}
	cfg := testConfig(2)
	cfg.RebalanceStep = 1.5
	if _, err := New(cfg, []ClientSpec{{}}); err == nil {
		t.Error("invalid rebalance step accepted")
	}
	for _, scale := range []float64{0.5, -3} {
		cfg := testConfig(2)
		cfg.Scale = scale
		if _, err := New(cfg, []ClientSpec{{}}); err == nil {
			t.Errorf("Scale %v accepted", scale)
		}
	}
	if _, err := New(testConfig(2), []ClientSpec{{TotalReservation: -1}}); err == nil {
		t.Error("negative reservation accepted")
	}
	// Over-subscription fails admission at New: first the client's own
	// NIC bound, then a shard's aggregate bound.
	if _, err := New(testConfig(2), []ClientSpec{{TotalReservation: 1 << 40}}); err == nil {
		t.Error("client-cap violation accepted")
	}
	over := make([]ClientSpec, 9)
	for i := range over {
		over[i] = ClientSpec{TotalReservation: 4000} // 9*2000 = 18000 > 15700 per shard
	}
	if _, err := New(testConfig(2), over); err == nil {
		t.Error("aggregate over-subscription accepted")
	}
}

func TestRunValidation(t *testing.T) {
	mc, err := New(testConfig(2), []ClientSpec{{TotalReservation: 1000, DemandPerPeriod: 1500}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mc.Run(-1, 2); err == nil {
		t.Error("negative warmup accepted")
	}
	if _, err := mc.Run(1, 0); err == nil {
		t.Error("zero measure accepted")
	}
	if _, err := mc.Run(1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := mc.Run(1, 2); err == nil {
		t.Error("second Run accepted")
	}
}

// TestUniformKeysMeetReservations: with uniformly sharded access, equal
// splits suffice; every client meets its total reservation across two
// servers.
func TestUniformKeysMeetReservations(t *testing.T) {
	specs := make([]ClientSpec, 6)
	for i := range specs {
		specs[i] = ClientSpec{
			TotalReservation: 4000, // 2000 per server; 6*2000=12000 < 15700 each
			DemandPerPeriod:  5000,
			Keys:             &workload.UniformKeys{N: 256},
		}
	}
	mc, err := New(testConfig(2), specs)
	if err != nil {
		t.Fatal(err)
	}
	out, err := mc.Run(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, cr := range out.PerClient {
		if len(cr.Periods) != 4 {
			t.Fatalf("client %d: %d periods", i, len(cr.Periods))
		}
		if float64(cr.MinPeriod) < 0.97*float64(cr.TotalReservation) {
			t.Errorf("client %d min %d < total reservation %d", i, cr.MinPeriod, cr.TotalReservation)
		}
	}
}

// skewedKeys draws keys that land on server 0 with the given probability.
type skewedKeys struct {
	servers int
	records int
	hotProb float64
}

func (s *skewedKeys) Next(rng *rand.Rand) uint64 {
	row := uint64(rng.Intn(s.records))
	if rng.Float64() < s.hotProb {
		return row * uint64(s.servers) // shard 0
	}
	return row*uint64(s.servers) + uint64(1+rng.Intn(s.servers-1))
}

// TestSkewNeedsRebalancing: a client whose accesses all hit server 0 can
// only use half of an equally-split reservation; with pTrans-style
// rebalancing the reservation follows the demand and the client recovers.
func TestSkewNeedsRebalancing(t *testing.T) {
	build := func(rebalance int) ([]uint64, []int64, uint64) {
		specs := []ClientSpec{
			{ // the skewed client: everything goes to server 0, within
				// the per-server local capacity (C_L = 4000 at this scale)
				TotalReservation: 3000,
				DemandPerPeriod:  3300,
				Keys:             &skewedKeys{servers: 2, records: 100, hotProb: 1.0},
			},
		}
		// Six pressure clients, each at its NIC-bound maximum total
		// reservation (C_L = 4000 at this scale, 2000 per server),
		// reserve server 0 heavily so its pool cannot cover the skewed
		// client's shortfall.
		for p := 0; p < 6; p++ {
			specs = append(specs, ClientSpec{
				TotalReservation: 4000,
				DemandPerPeriod:  15700,
				Keys:             &workload.UniformKeys{N: 256},
			})
		}
		cfg := testConfig(2)
		cfg.RebalanceEvery = rebalance
		mc, err := New(cfg, specs)
		if err != nil {
			t.Fatal(err)
		}
		out, err := mc.Run(2, 8)
		if err != nil {
			t.Fatal(err)
		}
		return out.PerClient[0].Periods, out.PerClient[0].FinalSplit, out.PerClient[0].MinPeriod
	}

	_, staticSplit, staticMin := build(0)
	if staticSplit[0] != 1500 || staticSplit[1] != 1500 {
		t.Fatalf("static split changed: %v", staticSplit)
	}
	// Static split: the skewed client's server-1 tokens are useless; on
	// server 0 it holds only 1500 and competes for leftovers.
	if staticMin >= 3000 {
		t.Fatalf("static split unexpectedly met the reservation: min %d", staticMin)
	}

	periods, split, min := build(2)
	if split[0] <= 2400 {
		t.Errorf("rebalancing did not shift reservation to the hot server: %v", split)
	}
	if split[0]+split[1] != 3000 {
		t.Errorf("rebalancing leaked reservation: %v", split)
	}
	// After convergence the client meets its total reservation.
	last := periods[len(periods)-1]
	if float64(last) < 0.97*3000 {
		t.Errorf("rebalanced client still missing: last period %d", last)
	}
	if min > last {
		t.Errorf("expected convergence over time: min %d, last %d", min, last)
	}
}

// TestServersAccessor and kernel exposure.
func TestAccessors(t *testing.T) {
	mc, err := New(testConfig(3), []ClientSpec{{TotalReservation: 3000, DemandPerPeriod: 3300}})
	if err != nil {
		t.Fatal(err)
	}
	if mc.Servers() != 3 {
		t.Errorf("Servers = %d", mc.Servers())
	}
	if mc.Kernel() == nil {
		t.Error("nil kernel")
	}
}

// TestSplitEqually covers the remainder distribution.
func TestSplitEqually(t *testing.T) {
	parts := splitEqually(10, 3)
	if parts[0] != 4 || parts[1] != 3 || parts[2] != 3 {
		t.Errorf("splitEqually(10,3) = %v", parts)
	}
	var sum int64
	for _, p := range splitEqually(1_000_003, 7) {
		sum += p
	}
	if sum != 1_000_003 {
		t.Errorf("split does not sum: %d", sum)
	}
}
