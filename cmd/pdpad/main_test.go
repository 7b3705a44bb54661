package main

import (
	"strings"
	"testing"
)

func TestConfigRejects(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-coordinator", "-node", "-join", "http://c:8080"}, "mutually exclusive"},
		{[]string{"-join", "http://c:8080"}, "-join requires -node"},
		{[]string{"-node"}, "-node requires -join"},
		{[]string{"-base", "4", "-max", "3"}, "-max must not be below -base"},
		{[]string{"-base", "0"}, "must be positive"},
		{[]string{"stray"}, "unexpected arguments"},
	} {
		_, _, _, err := config(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("config(%q) error = %v, want %q", tc.args, err, tc.want)
		}
	}
}

func TestConfigRoles(t *testing.T) {
	cfg, _, role, err := config([]string{"-base", "3"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Pool.BaseWorkers != 3 || cfg.Pool.MaxWorkers != 6 || cfg.Coordinator != nil || cfg.Join != "" {
		t.Errorf("pool config = base %d, max %d, coordinator %v, join %q; want base 3, max 6 (2×base), standalone",
			cfg.Pool.BaseWorkers, cfg.Pool.MaxWorkers, cfg.Coordinator, cfg.Join)
	}
	if role != "pool (base 3, max 6, warmup 500ms)" {
		t.Errorf("role = %q", role)
	}

	cfg, _, _, err = config([]string{"-base", "2", "-max", "2", "-node", "-join", "http://c:8080/", "-addr", ":8081"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Pool.MaxWorkers != 2 || cfg.Advertise != "http://127.0.0.1:8081" || cfg.Join != "http://c:8080" {
		t.Errorf("node config = max %d, advertise %q, join %q", cfg.Pool.MaxWorkers, cfg.Advertise, cfg.Join)
	}

	cfg, drain, role, err := config([]string{"-coordinator", "-placement", "lpt", "-drain-timeout", "3s", "-store", "/var/lib/pdpad"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Coordinator == nil || cfg.Coordinator.Placement != "lpt" || cfg.StoreDir != "/var/lib/pdpad" || drain.String() != "3s" {
		t.Errorf("coordinator config = %+v, store %q, drain %v", cfg.Coordinator, cfg.StoreDir, drain)
	}
	if role != "coordinator (placement lpt, heartbeat 2s)" {
		t.Errorf("role = %q", role)
	}
}

func TestDeriveAdvertise(t *testing.T) {
	for _, tc := range []struct{ advertise, addr, want string }{
		{"", ":8081", "http://127.0.0.1:8081"},
		{"", "node1:8081", "http://node1:8081"},
		{"http://node1.example:9000/", ":8081", "http://node1.example:9000"},
	} {
		if got := deriveAdvertise(tc.advertise, tc.addr); got != tc.want {
			t.Errorf("deriveAdvertise(%q, %q) = %q, want %q", tc.advertise, tc.addr, got, tc.want)
		}
	}
}
