package train

import (
	"reflect"
	"testing"

	"selsync/internal/cluster"
	"selsync/internal/comm"
	"selsync/internal/comm/commtest"
)

// runTCPRanks executes one training run SPMD across `procs` ranks (hosting
// `workers` global workers) through the shared commtest harness: each rank
// gets its own real TCP endpoint on 127.0.0.1, its own mesh fabric and its
// own independently constructed Config — exactly what `procs` separate OS
// processes would do, minus fork/exec. It returns every rank's Result and
// rank 0's fabric stats.
func runTCPRanks(t *testing.T, procs, workers int, mkCfg func() Config, run func(cfg Config) *Result) ([]*Result, *comm.Stats) {
	t.Helper()
	return commtest.RunRanks(t, procs, workers, func(rank int, fabric comm.Fabric) *Result {
		cfg := mkCfg()
		cfg.Fabric = fabric
		return run(cfg)
	})
}

// TestSelSyncTCPByteIdenticalToLoopback is the subsystem's acceptance
// bar: a 4-worker SelSync(δ) run executed across four TCP ranks on
// localhost must produce a Result byte-identical to the single-process
// loopback run of the same seed — History, SimTime, LSSR, step counts,
// everything.
func TestSelSyncTCPByteIdenticalToLoopback(t *testing.T) {
	mkCfg := func() Config {
		cfg := smallConfig(21)
		cfg.MaxSteps = 30
		cfg.EvalEvery = 10
		return cfg
	}
	run := func(cfg Config) *Result {
		return mustRun(cfg, SelSyncPolicy{Delta: 0.01, Mode: cluster.ParamAgg})
	}

	lbFabric := comm.NewLoopback(4)
	lbCfg := mkCfg()
	lbCfg.Fabric = lbFabric
	want := run(lbCfg)
	if want.LocalSteps == 0 || want.SyncSteps == 0 {
		t.Fatalf("test needs a mixed local/sync regime, got %+v", want)
	}

	results, stats := runTCPRanks(t, 4, 4, mkCfg, run)
	for r, got := range results {
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rank %d Result diverged from loopback:\n tcp: %+v\n  lb: %+v", r, got, want)
		}
	}

	// The logical traffic ledger matches the loopback fabric too: same
	// pushes, pulls, flag rounds, and codec-exact bytes.
	if *stats != *lbFabric.Stats() {
		t.Fatalf("traffic ledger diverged:\n tcp: %+v\n  lb: %+v", *stats, *lbFabric.Stats())
	}
	if stats.Pushes == 0 || stats.Bytes.Recv == 0 || stats.FlagRounds != 30 {
		t.Fatalf("implausible ledger: %+v", *stats)
	}
}

func TestBSPAndFedAvgTCPMatchLoopback(t *testing.T) {
	mkCfg := func() Config {
		cfg := smallConfig(22)
		cfg.MaxSteps = 16
		cfg.EvalEvery = 8
		return cfg
	}
	for _, tc := range []struct {
		name string
		run  func(cfg Config) *Result
	}{
		{"bsp", func(cfg Config) *Result { return mustRun(cfg, BSPPolicy{}) }},
		{"fedavg", func(cfg Config) *Result { return mustRun(cfg, &FedAvgPolicy{C: 0.5, E: 0.5}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lbCfg := mkCfg()
			want := tc.run(lbCfg)
			results, _ := runTCPRanks(t, 2, 4, mkCfg, tc.run) // 2 procs × 2 workers
			for r, got := range results {
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("rank %d Result diverged:\n tcp: %+v\n  lb: %+v", r, got, want)
				}
			}
		})
	}
}

// TestLocalSGDAndSwitchTCPMatchLoopback extends the byte-identity bar to
// pure local SGD and a hybrid SwitchPolicy run: the TCP mesh Result must
// reflect.DeepEqual the loopback one, exactly as for BSP/SelSync/FedAvg.
func TestLocalSGDAndSwitchTCPMatchLoopback(t *testing.T) {
	mkCfg := func() Config {
		cfg := smallConfig(24)
		cfg.MaxSteps = 16
		cfg.EvalEvery = 8
		return cfg
	}
	for _, tc := range []struct {
		name string
		run  func(cfg Config) *Result
	}{
		{"localsgd", func(cfg Config) *Result { return mustRun(cfg, LocalSGDPolicy{}) }},
		// A fresh policy per run: SwitchPolicy carries the switched flag.
		{"switch", func(cfg Config) *Result {
			return mustRun(cfg, &SwitchPolicy{
				From:   BSPPolicy{},
				To:     SelSyncPolicy{Delta: 0.01, Mode: cluster.ParamAgg},
				AtStep: 8,
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.run(mkCfg())
			results, _ := runTCPRanks(t, 2, 4, mkCfg, tc.run) // 2 procs × 2 workers
			for r, got := range results {
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("rank %d Result diverged:\n tcp: %+v\n  lb: %+v", r, got, want)
				}
			}
		})
	}
}

// TestSSPTCPMatchesLoopback: SSP is SPMD like every other method — on 2-
// and 4-rank TCP meshes every rank's Result equals the loopback run's, with
// identical devices and with a straggler tight against the staleness gate.
func TestSSPTCPMatchesLoopback(t *testing.T) {
	for _, tc := range []struct {
		name      string
		straggler bool
		staleness int
	}{
		{"homogeneous", false, 3},
		{"straggler", true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mkCfg := func() Config {
				cfg := smallConfig(23)
				cfg.MaxSteps = 20
				cfg.EvalEvery = 10
				if tc.straggler {
					cfg.Device = deviceWithStraggler(cfg.Seed, 1, 4)
				}
				return cfg
			}
			run := func(cfg Config) *Result { return mustRun(cfg, &SSPPolicy{Staleness: tc.staleness}) }
			want := run(mkCfg())
			for _, procs := range []int{2, 4} {
				results, _ := runTCPRanks(t, procs, 4, mkCfg, run)
				for r, got := range results {
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%d ranks: rank %d Result diverged:\n tcp: %+v\n  lb: %+v", procs, r, got, want)
					}
				}
			}
		})
	}
}
