package daemon

// Tests for POST /rebind: phased scenario timelines switch the topology
// schedule mid-session.

import (
	"context"
	"errors"
	"strings"
	"testing"

	"mobilegossip"
	"mobilegossip/client"
)

func TestRebindMatchesLocal(t *testing.T) {
	_, c := newTestDaemon(t, Config{Workers: 2})
	ctx := context.Background()
	info, err := c.Create(ctx, testWire(21))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(ctx, info.ID, 10); err != nil {
		t.Fatal(err)
	}
	rebound, err := c.Rebind(ctx, info.ID, client.RebindRequest{
		Topology: client.TopologySpec{Kind: "gnp", P: 0.15},
		Tau:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rebound.Round != 10 {
		t.Fatalf("rebind changed the round: %+v", rebound)
	}
	res, err := c.Run(ctx, info.ID, 0)
	if err != nil {
		t.Fatal(err)
	}

	// The same phase switch in-process must agree exactly.
	sim, err := mobilegossip.New(localConfig(21))
	if err != nil {
		t.Fatal(err)
	}
	for sim.Round() < 10 {
		if _, err := sim.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := sim.Rebind(mobilegossip.Topology{Kind: mobilegossip.GNP, P: 0.15}, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(ctx); err != nil {
		t.Fatal(err)
	}
	want := sim.Result()
	if res.Rounds != want.Rounds || res.FinalPotential != want.FinalPotential ||
		res.Connections != want.Connections || res.Topology != want.Topology {
		t.Fatalf("remote rebind diverged from local:\nremote: %+v\nlocal:  %+v", res, want)
	}
}

// TestRebindSurvivesEviction: an evicted session revives with the
// rebound schedule (the checkpoint carries it), not the create-time one.
func TestRebindSurvivesEviction(t *testing.T) {
	d, c := newTestDaemon(t, Config{Workers: 2})
	ctx := context.Background()
	info, err := c.Create(ctx, testWire(33))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(ctx, info.ID, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Rebind(ctx, info.ID, client.RebindRequest{
		Topology: client.TopologySpec{Kind: "cycle"},
		Tau:      1,
	}); err != nil {
		t.Fatal(err)
	}
	s, err := d.get(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !d.tryEvict(s) {
		t.Fatal("tryEvict failed on an idle session")
	}
	res, err := c.Run(ctx, info.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Topology, "cycle") {
		t.Fatalf("revived session lost the rebound schedule: %+v", res)
	}
}

func TestRebindErrors(t *testing.T) {
	_, c := newTestDaemon(t, Config{Workers: 2})
	ctx := context.Background()
	if _, err := c.Rebind(ctx, "nope", client.RebindRequest{
		Topology: client.TopologySpec{Kind: "cycle"},
	}); err == nil {
		t.Fatal("rebind on a missing session should 404")
	}
	info, err := c.Create(ctx, testWire(4))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Rebind(ctx, info.ID, client.RebindRequest{
		Topology: client.TopologySpec{Kind: "warp"},
	})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || !strings.Contains(apiErr.Message, "unknown topology") {
		t.Fatalf("bad topology kind should surface as APIError, got %v", err)
	}
}
