package train

import (
	"fmt"
	"strings"
	"testing"

	"selsync/internal/cluster"
)

// FuzzParseSchedule: every -method string, from a command line or a serve
// submit, goes through ParseSchedule with the five method names the CLIs
// bind. Any string parses or errors, never panics, and an accepted
// schedule keeps the grammar's promises: one phase per comma-separated
// part, a positive step count on every phase but the last, none on the
// last, and no SSP inside a multi-phase schedule.
func FuzzParseSchedule(f *testing.F) {
	for _, s := range []string{"bsp", "selsync", "bsp:200,selsync", "bsp:10, local:5 ,fedavg", "ssp", "bsp:5,ssp",
		"ssp:5,bsp", "bsp:0,selsync", "bsp:-3,selsync", "bsp,selsync", "selsync:10", "", ",", "bsp:,selsync",
		"bsp:+7,selsync", "bsp:9223372036854775808,local", "bogus", "bsp:1:2,local"} {
		f.Add(s)
	}
	mk := func(name string) (SyncPolicy, error) {
		switch name {
		case "bsp":
			return BSPPolicy{}, nil
		case "local":
			return LocalSGDPolicy{}, nil
		case "selsync":
			return SelSyncPolicy{Delta: 0.1, Mode: cluster.ParamAgg}, nil
		case "fedavg":
			return &FedAvgPolicy{C: 1, E: 0.25}, nil
		case "ssp":
			return &SSPPolicy{Staleness: 3}, nil
		}
		return nil, fmt.Errorf("unknown method %q", name)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParseSchedule(s, mk)
		if err != nil {
			return
		}
		parts := strings.Split(s, ",")
		sched, multi := p.(*SchedulePolicy)
		if len(parts) == 1 {
			if multi {
				t.Fatalf("ParseSchedule(%q): one part gave a %d-phase schedule", s, len(sched.Phases))
			}
			return
		}
		if !multi || len(sched.Phases) != len(parts) {
			t.Fatalf("ParseSchedule(%q): %d parts gave %T %+v", s, len(parts), p, p)
		}
		for i, ph := range sched.Phases {
			if last := i == len(sched.Phases)-1; (ph.Steps > 0) == last || ph.Steps < 0 {
				t.Fatalf("ParseSchedule(%q): phase %d of %d has %d steps", s, i, len(sched.Phases), ph.Steps)
			}
			if _, ok := ph.Policy.(*SSPPolicy); ok {
				t.Fatalf("ParseSchedule(%q) accepted SSP inside a schedule", s)
			}
		}
	})
}
