package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// hostInfo is the fingerprint stored with every saved run, so that a number
// is never read without the machine it was taken on.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	L2Bytes    int64  `json:"l2_bytes"`
	LLCBytes   int64  `json:"llc_bytes"`
	GoVersion  string `json:"go"`
}

func readHost() hostInfo {
	h := hostInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	h.L2Bytes = cacheBytes(2)
	// The last level is the highest index sysfs lists.
	for idx := 2; idx <= 4; idx++ {
		if b := cacheBytes(idx); b > 0 {
			h.LLCBytes = b
		}
	}
	return h
}

// cacheBytes reads cpu0's cache size at a sysfs index ("2048K"), 0 when the
// hierarchy is not exposed.
func cacheBytes(index int) int64 {
	data, err := os.ReadFile(filepath.Join("/sys/devices/system/cpu/cpu0/cache", "index"+strconv.Itoa(index), "size"))
	if err != nil {
		return 0
	}
	s := strings.TrimSpace(string(data))
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return n * mult
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM), 0 where
// /proc does not say.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}
