package main

import (
	"syscall"
	"time"
)

// cost is what one timed call took: its wall-clock time, and the CPU
// time all threads of the process used meanwhile.
//
// The gated end-to-end timings are CPU times, scaled by the run's
// gauge. Other tenants of a shared host take its CPUs (hypervisor
// steal, or other processes on the same CPUs) for seconds to minutes
// at a time: wall times then move together, by up to 1.5x between runs
// of the same code. The kernel charges a thread only for the time it ran,
// so the process's CPU time does not move with that. CPU time counts
// every worker's work, the runtime's spinning at barriers and garbage
// collection during the call. It does not count time a worker waits
// idle, so load imbalance and serial sections show only in the wall
// times, which are reported beside the CPU times (printed and in the
// result file; per-layer metrics in a traced run).
type cost struct{ wall, cpu time.Duration }

func (c *cost) add(d cost) {
	c.wall += d.wall
	c.cpu += d.cpu
}

// processCPU returns the user plus system CPU time used so far by all
// threads of the process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// measure runs f and returns its cost.
func measure(f func()) cost {
	c0, t0 := processCPU(), time.Now()
	f()
	return cost{wall: time.Since(t0), cpu: processCPU() - c0}
}

// timing collects the costs of repeated calls, in seconds, in the order
// measured.
type timing struct{ wall, cpu samples }

func (t *timing) add(c cost) {
	t.wall.addDur(c.wall, 1)
	t.cpu.addDur(c.cpu, 1)
}

// scaled returns s with every sample multiplied by k.
func scaled(s samples, k float64) samples {
	out := make(samples, len(s))
	for i, v := range s {
		out[i] = v * k
	}
	return out
}

// costs reports a stage timing as name_cpu_s, the median CPU time
// scaled by the run's gauge (gated), and name_s, the median wall time.
func (r *report) costs(name string, t timing, scale float64) {
	r.timing(name+"_cpu_s", "s", scaled(t.cpu, scale))
	r.timing(name+"_s", "s", t.wall)
}
