package cluster

import (
	"strings"
	"testing"
)

// TestRunOneShot pins Run's one-shot contract on every schedule shape:
// unsharded Bare (the cluster's own period ticker), unsharded Haechi
// (engine-driven periods) and a three-shard run on two workers (whose
// worker pool is closed when the first run ends). A second Run must fail
// at once instead of extending the first run's windows into cumulative
// Results, or blocking on the closed pool.
func TestRunOneShot(t *testing.T) {
	cases := []struct {
		name            string
		mode            Mode
		shards, workers int
	}{
		{"unsharded-bare", Bare, 0, 0},
		{"unsharded-haechi", Haechi, 0, 0},
		{"sharded-3x2", Haechi, 3, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			specs := make([]ClientSpec, 4)
			for i := range specs {
				specs[i] = ClientSpec{Reservation: 1000, Demand: ConstantDemand(1500)}
				if tc.mode == Bare {
					specs[i].Reservation = 0
				}
			}
			cfg := testConfig(tc.mode)
			cfg.Shards = tc.shards
			cfg.ShardWorkers = tc.workers
			cl, err := New(cfg, specs)
			if err != nil {
				t.Fatal(err)
			}
			first, err := cl.Run(1, 2)
			if err != nil {
				t.Fatal(err)
			}
			if first.MeasuredPeriods != 2 || first.EventsExecuted == 0 {
				t.Fatalf("first run: %d measured periods, %d events", first.MeasuredPeriods, first.EventsExecuted)
			}
			executed := cl.Kernel().Executed()
			again, err := cl.Run(1, 2)
			if err == nil || !strings.Contains(err.Error(), "Run called twice") {
				t.Fatalf("second Run: err = %v, want the one-shot error", err)
			}
			if again != nil {
				t.Errorf("second Run returned Results alongside its error")
			}
			if got := cl.Kernel().Executed(); got != executed {
				t.Errorf("second Run fired %d events before failing", got-executed)
			}
		})
	}
}
