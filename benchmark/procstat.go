package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// userHz is the unit of utime/stime in /proc/<pid>/stat. Linux fixes the
// user-visible tick at 100 Hz on every architecture Go supports.
const userHz = 100

// parseProcStat extracts utime+stime, in seconds, from the contents of
// /proc/<pid>/stat. The command name (field 2) may itself contain spaces
// and parentheses, so fields are counted from the last ')'.
func parseProcStat(stat string) (cpuSeconds float64, err error) {
	end := strings.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	// fields[0] is field 3 (state); utime and stime are fields 14 and 15
	fields := strings.Fields(stat[end+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(fields))
	}
	utime, err := strconv.ParseUint(fields[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	stime, err := strconv.ParseUint(fields[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return float64(utime+stime) / userHz, nil
}

// parseVmHWM extracts the peak resident set size, in MB, from the
// contents of /proc/<pid>/status.
func parseVmHWM(status string) (mb float64, err error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
		if err != nil {
			return 0, fmt.Errorf("proc status: VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

// procCPU reads a live process's consumed CPU seconds.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(b))
}

// procPeakRSS reads a live process's peak resident set in MB.
func procPeakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}
