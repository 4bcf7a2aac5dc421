package rdma

import (
	"bytes"
	"testing"

	"github.com/haechi-qos/haechi/internal/sim"
	"github.com/haechi-qos/haechi/internal/sim/shard"
)

// TestWritePayloadCapturedAndRecycled pins QP.Write's payload contract
// under buffer recycling: the payload is captured when Write returns, so
// a caller that reuses its source slice at once cannot change what lands
// at the target — even with two WRITEs in flight on one QP, and again
// when those WRITEs draw on the buffers recycled from earlier ones. It
// covers a same-shard QP and a cross-shard QP, whose buffers come back
// on the initiator's kernel with the return message.
func TestWritePayloadCapturedAndRecycled(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
	}{
		{"same-shard", 1},
		{"cross-shard", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.New(1)
			cfg := NewDefaultConfig()
			cfg.Jitter = 0
			// A lookahead quantum (one propagation delay) several 4 KB
			// service times wide, so the two shards overlap in time.
			cfg.PropagationDelay = 10 * sim.Microsecond
			f, err := NewFabric(k, cfg)
			if err != nil {
				t.Fatal(err)
			}
			run := func(until sim.Time) { k.RunUntil(until) }
			if tc.shards > 1 {
				kernels := []*sim.Kernel{k, sim.New(2)}
				g, err := shard.New(kernels, cfg.PropagationDelay, 2)
				if err != nil {
					t.Fatal(err)
				}
				defer g.Close()
				assign := func(_ string, kind NodeKind) int {
					if kind == ServerNode {
						return 0
					}
					return 1
				}
				if err := f.EnableSharding(kernels, assign, g.Post); err != nil {
					t.Fatal(err)
				}
				run = g.RunUntil
			}
			server, err := f.AddServer("dn")
			if err != nil {
				t.Fatal(err)
			}
			client, err := f.AddClient("c1")
			if err != nil {
				t.Fatal(err)
			}
			r, err := server.RegisterRegion("data", 4*DataIOSize)
			if err != nil {
				t.Fatal(err)
			}
			qp, err := f.Connect(client, server)
			if err != nil {
				t.Fatal(err)
			}
			if qp.cross != (tc.shards > 1) {
				t.Fatalf("QP cross = %v, want %v", qp.cross, tc.shards > 1)
			}

			src := make([]byte, DataIOSize)
			completed := 0
			done := func() { completed++ }
			for round, fill := range [][2]byte{{0xA1, 0xB2}, {0xC3, 0xD4}} {
				// Two WRITEs in flight from one reused source slice, each
				// overwritten right after Write returns.
				for i, b := range fill {
					for j := range src {
						src[j] = b
					}
					if err := qp.Write(r, i*DataIOSize, src, done); err != nil {
						t.Fatal(err)
					}
					for j := range src {
						src[j] = 0xEE
					}
				}
				run(sim.Time(round+1) * sim.Millisecond)
				if completed != 2*(round+1) {
					t.Fatalf("round %d: %d WRITEs completed, want %d", round, completed, 2*(round+1))
				}
				for i, b := range fill {
					got, _ := r.CopyOut(i*DataIOSize, DataIOSize)
					if !bytes.Equal(got, bytes.Repeat([]byte{b}, DataIOSize)) {
						t.Errorf("round %d WRITE %d: target holds %#x..., want all %#x", round, i, got[0], b)
					}
				}
				// Both payload buffers are back on the initiator's side.
				if len(qp.spare) != 2 {
					t.Errorf("round %d: %d spare payload buffers, want 2", round, len(qp.spare))
				}
			}

			// Closed loops on four slots, started half a propagation delay
			// apart: each completion posts that slot's next WRITE, so the
			// initiator draws spares while the target applies other slots'
			// WRITEs — concurrently on two workers in the cross-shard case,
			// where recycling on the target's kernel is a data race.
			const loops = 50
			var last [4]byte
			for i := range last {
				i := i
				n := 0
				var next func()
				next = func() {
					if n == loops {
						return
					}
					n++
					last[i] = byte(16*i + n)
					for j := range src {
						src[j] = last[i]
					}
					if err := qp.Write(r, i*DataIOSize, src, next); err != nil {
						t.Error(err)
					}
				}
				client.Kernel().Schedule(sim.Time(i)*cfg.PropagationDelay/2, next)
			}
			run(50 * sim.Millisecond)
			for i, b := range last {
				got, _ := r.CopyOut(i*DataIOSize, DataIOSize)
				if !bytes.Equal(got, bytes.Repeat([]byte{b}, DataIOSize)) {
					t.Errorf("closed-loop slot %d: target holds %#x..., want all %#x", i, got[0], b)
				}
			}
		})
	}
}
