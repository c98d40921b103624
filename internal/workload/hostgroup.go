package workload

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/simos"
)

// SyntheticRSS is the resident set of the synthetic contention programs;
// the paper made them deliberately tiny to isolate CPU contention
// ("all the programs have very small resident sets").
const SyntheticRSS = 2 * simos.MB

// HostGroup is a set of host processes whose aggregate isolated CPU usage
// targets a group load LH, the experimental unit of Figure 1.
type HostGroup struct {
	// Usages are the individual isolated CPU usages; their sum is the
	// group's target LH.
	Usages []float64
}

// Spawn starts the group's processes on a machine at nice 0, returning
// them in member order.
func (g HostGroup) Spawn(m *simos.Machine, period time.Duration) []*simos.Process {
	procs := make([]*simos.Process, len(g.Usages))
	for i, u := range g.Usages {
		name := fmt.Sprintf("host-%d", i)
		procs[i] = m.Spawn(name, simos.Host, 0, SyntheticRSS,
			&DutyCycle{Usage: u, Period: period, Jitter: 0.1})
	}
	return procs
}

// minMemberUsage keeps generated member usages realistic: the paper's
// synthetic host programs ranged from 10% to 100% isolated usage.
const minMemberUsage = 0.05

// ComposeGroup randomly decomposes the target load lh into m member usages
// in [minMemberUsage, 1], replicating the paper's protocol of choosing "M
// host programs with different isolated CPU usages" whose total equals LH.
// It returns an error when the target is infeasible for m members.
func ComposeGroup(r *rand.Rand, lh float64, m int) (HostGroup, error) {
	if m <= 0 {
		return HostGroup{}, fmt.Errorf("workload: group size must be positive, got %d", m)
	}
	if lh < minMemberUsage*float64(m)-1e-9 {
		return HostGroup{}, fmt.Errorf("workload: LH %.2f too small for %d members", lh, m)
	}
	if lh > float64(m)+1e-9 {
		return HostGroup{}, fmt.Errorf("workload: LH %.2f exceeds %d fully-loaded members", lh, m)
	}
	if m == 1 {
		return HostGroup{Usages: []float64{lh}}, nil
	}
	// Rejection-sample a random composition: draw m-1 cut points over the
	// distributable slack, then add the floor back to each member.
	slack := lh - minMemberUsage*float64(m)
	for attempt := 0; attempt < 1000; attempt++ {
		cuts := make([]float64, m+1)
		cuts[0], cuts[m] = 0, slack
		for i := 1; i < m; i++ {
			cuts[i] = r.Float64() * slack
		}
		sortFloats(cuts)
		usages := make([]float64, m)
		feasible := true
		for i := 0; i < m; i++ {
			usages[i] = minMemberUsage + (cuts[i+1] - cuts[i])
			if usages[i] > 1 {
				feasible = false
				break
			}
		}
		if feasible {
			return HostGroup{Usages: usages}, nil
		}
	}
	// Fall back to an even split, which is always feasible here.
	usages := make([]float64, m)
	for i := range usages {
		usages[i] = lh / float64(m)
	}
	return HostGroup{Usages: usages}, nil
}

// sortFloats is a tiny insertion sort; groups are always small.
func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
