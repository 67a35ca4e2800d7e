package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// envRecord is written into every result and trace file: what a number
// was measured on, without which it cannot be compared with another.
type envRecord struct {
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	RunSeconds float64 `json:"run_seconds"`
	WarmupS    float64 `json:"warmup_seconds"`
	Link       string  `json:"link"`
	Loop       string  `json:"loop"`
}

func environment(seed int64, seconds float64) envRecord {
	return envRecord{
		Commit:     commit(),
		Seed:       seed,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		RunSeconds: seconds,
		WarmupS:    warmup(seconds).Seconds(),
		Link:       "loopback (127.0.0.1), not a real link",
		Loop:       "closed, 1 publisher goroutine",
	}
}

// commit is the checked-out commit, or "unknown" where the working
// directory is not the root of a git checkout (the driver's checkouts
// are not repositories, and git must not go looking above them).
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}
