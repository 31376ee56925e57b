package main

import "time"

// Host-speed calibration.
//
// The builder's host (two vCPUs of a shared machine) has spells, ten seconds
// to a few minutes long, in which all code runs 30-50 % slower: ten runs of
// one workload then spread 20-30 %, wider than any bound worth having. The
// slowdown is close to uniform: over a 25-minute log the time of the small
// fixed kernel below tracked the time of a G500 product, an ER product and
// matrix.NaiveMultiply to within 11-17 % while those moved by 37-53 %, and
// dividing by it cut the spread of their 12-second means from 6-7 % to
// 2.5 %. So every round of ops and every set-up is bracketed by calibration
// samples, and its times are reported as they would read with the host at
// nominal speed: t * nominalCalib / calibration. What a later change to the
// repository does to the code under test cannot reach the kernel, which
// lives here and calls nothing outside this file.
//
// The kernel mixes what the spells hit hardest, dependent memory accesses:
// read-modify-write at random places of a 1 MiB table, and inserts and
// updates in a Go map. (Pure ALU chains slowed by only 14-17 % when the
// products slowed by 40 %.)

// nominalCalib is calibrate() on the builder's host in a quiet spell. On
// another machine model it is merely a constant factor on every time.
const nominalCalib = 1.9e-3

const calibReps = 3

var (
	calibTable = make([]uint32, 1<<18)
	calibMap   = make(map[int32]float64, 1<<14)
	calibSink  uint32
)

// calibrate returns the seconds one pass of the kernel takes, the least of
// calibReps passes: a scheduling hiccup only ever adds time to one pass,
// while a slow spell slows them all.
func calibrate() float64 {
	best := 0.0
	for rep := 0; rep < calibReps; rep++ {
		t0 := time.Now()
		i := uint32(1)
		for k := 0; k < 400_000; k++ {
			i = i*1664525 + 1013904223
			calibTable[(i>>10)&(1<<18-1)] += i
		}
		clear(calibMap)
		for k := 0; k < 60_000; k++ {
			i = i*1664525 + 1013904223
			calibMap[int32(i>>18)]++
		}
		calibSink += i + uint32(len(calibMap))
		if took := time.Since(t0).Seconds(); rep == 0 || took < best {
			best = took
		}
	}
	return best
}

// hostClock brackets stretches of work with calibration samples. A sample
// taken at the end of one stretch serves as the start of the next when that
// follows at once.
type hostClock struct {
	last    float64
	at      time.Time
	samples []float64
}

func (h *hostClock) take() float64 {
	h.last, h.at = calibrate(), time.Now()
	h.samples = append(h.samples, h.last)
	return h.last
}

// around runs work and returns the factor that brings its times to nominal
// host speed.
func (h *hostClock) around(work func()) float64 {
	before := h.last
	if before == 0 || time.Since(h.at) > 50*time.Millisecond {
		before = h.take()
	}
	work()
	return nominalCalib / ((before + h.take()) / 2)
}

// speed is the host's median speed over the run, 1 being nominal.
func (h *hostClock) speed() float64 {
	if len(h.samples) == 0 {
		return 1
	}
	return nominalCalib / median(h.samples)
}
