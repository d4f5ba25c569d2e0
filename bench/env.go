package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"dirsim/internal/obs"
)

// env is the environment record written into every output, so that a
// disturbed run can be recognised instead of argued about.
type env struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"revision"`
	// TmpDir is where store directories live and TmpFS its filesystem
	// type. It is inside the working directory because the benchmark may
	// write nowhere else; on a disk-backed checkout the store's fsyncs
	// are part of service_warm's set-up time.
	TmpDir  string `json:"tmp_dir"`
	TmpFS   string `json:"tmp_fs"`
	LoadAvg string `json:"loadavg_start"`
	// StealShare is the share of the box's CPU time over the run that the
	// hypervisor gave to someone else; InvoluntarySwitches counts the
	// times this process was descheduled while runnable.
	StealShare          float64 `json:"steal_share"`
	InvoluntarySwitches int64   `json:"involuntary_switches"`
	// Disturbed marks a run during which the hypervisor took more than 2%
	// of the box's CPU time. The load average is recorded but not judged:
	// in a series of back-to-back runs it mostly shows the previous run.
	Disturbed bool `json:"disturbed"`

	steal0, total0 uint64
}

func captureEnv() (*env, error) {
	e := &env{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Revision:   obs.Build(),
		TmpDir:     ".bench_tmp",
	}
	if err := os.MkdirAll(e.TmpDir, 0o755); err != nil {
		return nil, err
	}
	e.TmpFS = fsType(e.TmpDir)
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) >= 3 {
			e.LoadAvg = strings.Join(f[:3], " ")
		}
	}
	e.steal0, e.total0 = procStat()
	return e, nil
}

// finish closes the record at the end of the run.
func (e *env) finish() {
	steal, total := procStat()
	if total > e.total0 {
		e.StealShare = float64(steal-e.steal0) / float64(total-e.total0)
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		e.InvoluntarySwitches = int64(ru.Nivcsw)
	}
	e.Disturbed = e.StealShare > 0.02
}

// procStat returns the steal and total jiffies of the aggregate cpu line.
func procStat() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	// cpu user nice system idle iowait irq softirq steal guest guest_nice
	fields := strings.Fields(sc.Text())
	for i, s := range fields[1:] {
		v, _ := strconv.ParseUint(s, 10, 64)
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// statusMB reads one kB-valued field of /proc/self/status ("VmRSS:",
// the resident set; "VmHWM:", its high-water mark) in MB.
func statusMB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
