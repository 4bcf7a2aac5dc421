package cluster

import (
	"fmt"

	"github.com/haechi-qos/haechi/internal/sim"
)

// Run executes the experiment: warmupPeriods QoS periods of warm-up
// (discarded, like the paper's first 30 s), then measurePeriods periods
// whose per-client completions, latencies and throughput are recorded.
// Run is one-shot: it consumes the cluster, and a second call fails.
//
// There is one schedule whatever the shard count. Every per-client
// action (Bare-mode period boundaries, harvesting, measure-window
// flags) runs on that client's own shard kernel, so a sharded quantum
// never writes state another shard owns. The data-node pieces (monitor,
// server-stat snapshot, background jobs, chaos on the data node) live on
// shard 0. Unsharded, shard 0 is the only shard and holds every client.
func (c *Cluster) Run(warmupPeriods, measurePeriods int) (*Results, error) {
	if c.ran {
		return nil, fmt.Errorf("cluster: Run called twice; a cluster runs once")
	}
	if warmupPeriods < 0 || measurePeriods <= 0 {
		return nil, fmt.Errorf("cluster: need warmupPeriods >= 0 and measurePeriods > 0, got %d/%d",
			warmupPeriods, measurePeriods)
	}
	c.ran = true
	T := c.cfg.Params.Period
	start := c.kernel.Now()
	c.warmupPeriods = warmupPeriods
	if err := c.armChaos(start); err != nil {
		return nil, err
	}

	byShard := make([][]*Client, len(c.kernels))
	for _, rt := range c.clients {
		s := rt.Node.Shard()
		byShard[s] = append(byShard[s], rt)
	}

	var tickers []*sim.Ticker
	if c.cfg.Mode == Bare {
		// One period ticker per shard, driving only that shard's clients.
		// All shards tick at the same virtual instants, so the per-shard
		// period counters advance in lockstep.
		for s, list := range byShard {
			if len(list) == 0 {
				continue
			}
			period := 0
			tick, err := c.kernels[s].Every(0, T, func() {
				period++
				for _, rt := range list {
					c.harvest(rt, period)
					rt.Gen.BeginPeriod(rt.Spec.Demand(period))
				}
			})
			if err != nil {
				return nil, err
			}
			tickers = append(tickers, tick)
		}
	} else if err := c.monitor.Start(); err != nil {
		return nil, err
	}

	if c.registries != nil {
		// One metrics ticker per shard, sampling only that shard's
		// registry from that shard's kernel: every gauge is registered on
		// its owner's shard (see registerMetrics), so sampling reads no
		// cross-shard state and the workers stay unconstrained. All shards
		// tick at the same virtual instants and run to the same horizon,
		// so the per-shard sample timelines coincide and merge cleanly.
		for s, reg := range c.registries {
			k := c.kernels[s]
			tick, err := k.Every(0, c.cfg.Observe.MetricsInterval, func() {
				reg.Sample(k.Now())
			})
			if err != nil {
				return nil, err
			}
			tickers = append(tickers, tick)
		}
	}

	warmEnd := start + sim.Time(warmupPeriods)*T
	measureEnd := warmEnd + sim.Time(measurePeriods)*T
	for s, list := range byShard {
		if s == 0 || len(list) > 0 {
			c.kernels[s].At(warmEnd, func() {
				if s == 0 {
					c.serverStat0 = c.server.Stats()
				}
				for _, rt := range list {
					rt.Gen.Latency.Reset()
					rt.measuring = true
					// The next harvest closes the final warm-up period; skip it.
					rt.skipNext = true
				}
			})
		}
		if len(list) > 0 {
			// Harvests for period p happen just after the p+1 boundary;
			// stop measuring mid-period so exactly measurePeriods are
			// recorded.
			c.kernels[s].At(measureEnd+T/2, func() {
				for _, rt := range list {
					rt.measuring = false
				}
			})
		}
	}

	// The quantum coordinator exists only when Shards > 1; the unsharded
	// kernel runs straight to the horizon.
	end := measureEnd + 3*T/4
	if c.group != nil {
		c.group.RunUntil(end)
		c.group.Close()
	} else {
		c.kernel.RunUntil(end)
	}
	serverStats := c.server.Stats().Sub(c.serverStat0)

	for _, tick := range tickers {
		tick.Stop()
	}
	if c.monitor != nil {
		c.monitor.Stop()
	}
	for _, rt := range c.clients {
		rt.Gen.Stop()
		if rt.Engine != nil {
			rt.Engine.Stop()
		}
	}
	res, err := c.buildResults(measurePeriods, serverStats)
	if err != nil {
		return nil, err
	}
	if ob := c.cfg.Observe; ob != nil && ob.OnResults != nil {
		ob.OnResults(res)
	}
	c.checkChaosInvariants(res)
	// A sanitized run that broke an invariant fails loudly; the results
	// are returned alongside so diagnostics can still inspect them.
	return res, c.sanErr()
}
