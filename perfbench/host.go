package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"
)

// host records where a result was measured. Ratios taken on different
// hosts mix changes of host with changes of code, so every result
// carries this.
type host struct {
	CPU        string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOAMD64    string `json:"goamd64"`
	GoVersion  string `json:"go_version"`
	LLCBytes   int64  `json:"llc_bytes"`
}

func probeHost() host {
	h := host{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOAMD64:    "unset",
		GoVersion:  runtime.Version(),
		LLCBytes:   llcBytes(),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				h.GOAMD64 = s.Value
			}
		}
	}
	return h
}

// llcBytes returns the size of the highest-level CPU cache reported by
// sysfs, or 0 when it cannot be read.
func llcBytes() int64 {
	best, bestLevel := int64(0), 0
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		lv, err1 := os.ReadFile(dir + "level")
		sz, err2 := os.ReadFile(dir + "size")
		if err1 != nil || err2 != nil {
			continue
		}
		level, _ := strconv.Atoi(strings.TrimSpace(string(lv)))
		s := strings.TrimSpace(string(sz))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		n, err := strconv.ParseInt(s, 10, 64)
		if err == nil && level >= bestLevel {
			best, bestLevel = n*mult, level
		}
	}
	return best
}

func (h host) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d GOMAXPROCS=%d GOAMD64=%s go=%s llc=%d MiB",
		h.CPU, h.NProc, h.GOMAXPROCS, h.GOAMD64, h.GoVersion, h.LLCBytes>>20)
}

// triadArrayBytes is the size of each of the three triad arrays. The
// benchmark shares its host's memory, so the arrays are capped rather
// than sized to 4x the LLC; when they are smaller than that, the triad
// may run partly from cache and no fraction-of-triad ratio is reported.
const triadArrayBytes = 32 << 20

// triad is a STREAM-style triad a = b + s*c (McCalpin) over three
// float64 arrays with the given worker count, each worker owning one
// contiguous slice. It returns the best bandwidth of reps passes in
// GB/s, counting 24 bytes moved per element (two loads, one store; no
// write-allocate traffic), as STREAM does.
func triad(workers, reps int) (gbps float64, arrayBytes int64) {
	n := triadArrayBytes / 8
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	best := time.Duration(1 << 62)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		var wg sync.WaitGroup
		chunk := (n + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo, hi := w*chunk, min((w+1)*chunk, n)
			wg.Add(1)
			go func() {
				defer wg.Done()
				aa, bb, cc := a[lo:hi], b[lo:hi], c[lo:hi]
				for i := range aa {
					aa[i] = bb[i] + 3*cc[i]
				}
			}()
		}
		wg.Wait()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	if a[n-1] != 7 {
		panic("triad: wrong result")
	}
	return float64(24*n) / best.Seconds() / 1e9, triadArrayBytes
}

// hostCPUTicks returns the ticks all CPUs have spent stolen by the
// hypervisor and in total, from /proc/stat, or ok=false where it cannot
// be read.
func hostCPUTicks() (steal, total uint64, ok bool) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // user .. steal; guest time is already in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}
