package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"fedsparse/internal/metrics"
)

// median is the middle value (the mean of the two middle values for an
// even count), and 0 — not NaN, which a result line cannot carry — for no
// samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return metrics.Quantile(xs, 0.5)
}

// percentile returns the p-th percentile (0 < p < 100, nearest rank) of
// the samples. It refuses a percentile that has fewer than ten samples
// beyond it: a tail read off a handful of points is noise, not a
// measurement.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v outside (0, 100)", p)
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	rank := max(int(math.Ceil(float64(n)*p/100))-1, 0) // nearest rank, 0-based
	if beyond := n - 1 - rank; beyond < 10 {
		return 0, fmt.Errorf("p%v of %d samples has %d beyond it, need 10", p, n, beyond)
	}
	return s[rank], nil
}

// vmHWMMiB is the process's peak resident set, from /proc/self/status.
func vmHWMMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 2 && fields[1] == "kB" {
			kb, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
