package workload

import (
	"fmt"

	"repro/internal/simos"
)

// AppProfile is a measured application resource profile, as reported in
// the paper's Table 1.
type AppProfile struct {
	Name string
	// CPUUsage is the isolated CPU usage in [0, 1].
	CPUUsage float64
	// ResidentMB and VirtualMB are the resident and virtual set sizes.
	ResidentMB int64
	VirtualMB  int64
}

// RSS returns the resident set size in bytes.
func (a AppProfile) RSS() int64 { return a.ResidentMB * simos.MB }

// Behavior builds the duty-cycle behavior realizing the profile's CPU
// usage. Guests at ~100% become effectively CPU-bound.
func (a AppProfile) Behavior() simos.Behavior {
	return &DutyCycle{Usage: a.CPUUsage, Jitter: 0.1}
}

// Spawn starts the profiled application on a machine.
func (a AppProfile) Spawn(m *simos.Machine, class simos.Class, nice int) *simos.Process {
	return m.Spawn(a.Name, class, nice, a.RSS(), a.Behavior())
}

// String renders the Table 1 row.
func (a AppProfile) String() string {
	return fmt.Sprintf("%-7s cpu=%5.1f%% rss=%4d MB vsz=%4d MB",
		a.Name, a.CPUUsage*100, a.ResidentMB, a.VirtualMB)
}

// SPECGuests returns the paper's four guest applications (Table 1): all
// CPU-bound, with working sets from 29 MB to 193 MB.
func SPECGuests() []AppProfile {
	return []AppProfile{
		{Name: "apsi", CPUUsage: 0.98, ResidentMB: 193, VirtualMB: 205},
		{Name: "galgel", CPUUsage: 0.99, ResidentMB: 29, VirtualMB: 155},
		{Name: "bzip2", CPUUsage: 0.97, ResidentMB: 180, VirtualMB: 182},
		{Name: "mcf", CPUUsage: 0.99, ResidentMB: 96, VirtualMB: 96},
	}
}

// MusbusWorkloads returns the paper's six interactive host workloads
// H1..H6 (Table 1), created by varying the size of the files the simulated
// "host users" edit and compile.
func MusbusWorkloads() []AppProfile {
	return []AppProfile{
		{Name: "H1", CPUUsage: 0.086, ResidentMB: 71, VirtualMB: 122},
		{Name: "H2", CPUUsage: 0.092, ResidentMB: 213, VirtualMB: 247},
		{Name: "H3", CPUUsage: 0.172, ResidentMB: 53, VirtualMB: 151},
		{Name: "H4", CPUUsage: 0.219, ResidentMB: 68, VirtualMB: 122},
		{Name: "H5", CPUUsage: 0.570, ResidentMB: 210, VirtualMB: 236},
		{Name: "H6", CPUUsage: 0.662, ResidentMB: 84, VirtualMB: 113},
	}
}

// GuestByName finds a SPEC guest profile by name.
func GuestByName(name string) (AppProfile, bool) {
	for _, g := range SPECGuests() {
		if g.Name == name {
			return g, true
		}
	}
	return AppProfile{}, false
}

// HostWorkloadByName finds a Musbus host workload by name.
func HostWorkloadByName(name string) (AppProfile, bool) {
	for _, h := range MusbusWorkloads() {
		if h.Name == name {
			return h, true
		}
	}
	return AppProfile{}, false
}
