package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// heterodProc is one running heterod process.
type heterodProc struct {
	cmd      *exec.Cmd
	addr     string
	spillDir string
	started  time.Time
	logDone  chan struct{} // closed when the stderr reader has finished
	http     *http.Client
}

// heterodArgs is the one heterod command line every serving workload runs:
// the default flags plus a spill directory, write-through, and the memory
// budget of the size profile.
func heterodArgs(sz sizes, spillDir string) []string {
	return append([]string{
		"-addr", "127.0.0.1:0",
		"-spill-dir", spillDir,
		"-spill-write-through",
		"-cache-size", strconv.Itoa(sz.cacheEntries),
		"-cache-bytes", strconv.FormatInt(sz.cacheBytes, 10),
	}, sz.extraHeterodArgs...)
}

// startHeterod execs heterod with GOMAXPROCS=procs and returns once it
// answers /v1/healthz with 200.
func startHeterod(bin string, args []string, spillDir string, procs int) (*heterodProc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	// heterod dies with the benchmark, even when the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	p := &heterodProc{cmd: cmd, spillDir: spillDir, logDone: make(chan struct{}),
		http: &http.Client{Timeout: 10 * time.Second}}
	p.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting heterod: %w", err)
	}
	addrc := make(chan string, 1)
	go func() {
		defer close(p.logDone)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "heterod listening on "); i >= 0 && !sent {
				addrc <- strings.TrimSpace(line[i+len("heterod listening on "):])
				sent = true
			}
		}
		if !sent {
			close(addrc)
		}
		_, _ = io.Copy(io.Discard, stderr)
	}()
	select {
	case addr, ok := <-addrc:
		if !ok {
			p.stop()
			return nil, errors.New("heterod exited before listening")
		}
		p.addr = addr
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, errors.New("heterod did not start listening within 30s")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := p.http.Get("http://" + p.addr + "/v1/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, fmt.Errorf("heterod /v1/healthz not ready within 30s (last error %v)", err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop sends SIGTERM, waits up to 10s for the graceful drain, kills the
// process if it is still running, and removes its spill directory.
func (p *heterodProc) stop() {
	if p.cmd.Process != nil {
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { _ = p.cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			_ = p.cmd.Process.Kill()
			<-done
		}
		<-p.logDone
	}
	p.http.CloseIdleConnections()
	if p.spillDir != "" {
		_ = os.RemoveAll(p.spillDir)
	}
}

// statz is the subset of /v1/statz the benchmark reads.
type statz struct {
	Build struct {
		GoVersion   string `json:"go_version"`
		VCSRevision string `json:"vcs_revision"`
	} `json:"build"`
	MeasureCache struct {
		Hits            uint64 `json:"hits"`
		Misses          uint64 `json:"misses"`
		Coalesced       uint64 `json:"coalesced"`
		Evicted         uint64 `json:"evicted"`
		Rejected        uint64 `json:"rejected"`
		RawHits         uint64 `json:"raw_hits"`
		ShardResizes    uint64 `json:"shard_resizes"`
		RawShardResizes uint64 `json:"raw_shard_resizes"`
	} `json:"measure_cache"`
	Batch struct {
		Requests        uint64 `json:"requests"`
		Streamed        uint64 `json:"streamed"`
		CacheHits       uint64 `json:"cache_hits"`
		RawHits         uint64 `json:"raw_hits"`
		RawShardResizes uint64 `json:"raw_shard_resizes"`
	} `json:"batch"`
	Cluster struct {
		LocalEvals uint64 `json:"local_evals"`
	} `json:"cluster"`
	Spill struct {
		Hits            uint64 `json:"hits"`
		Misses          uint64 `json:"misses"`
		Writes          uint64 `json:"writes"`
		DroppedWrites   uint64 `json:"dropped_writes"`
		FailedWrites    uint64 `json:"failed_writes"`
		Corrupt         uint64 `json:"corrupt"`
		RetiredSegments uint64 `json:"retired_segments"`
		CompactDeferred uint64 `json:"compact_deferred"`
		CompactedBytes  uint64 `json:"compacted_bytes"`
		Bytes           int64  `json:"bytes"`
	} `json:"spill"`
	Serving struct {
		Shed             uint64 `json:"shed"`
		Panics           uint64 `json:"panics"`
		DeadlineExceeded uint64 `json:"deadline_exceeded"`
	} `json:"serving"`
}

func (p *heterodProc) statz() (statz, error) {
	var s statz
	resp, err := p.http.Get("http://" + p.addr + "/v1/statz")
	if err != nil {
		return s, fmt.Errorf("reading /v1/statz: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("/v1/statz answered %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return s, fmt.Errorf("decoding /v1/statz: %w", err)
	}
	return s, nil
}

// waitSpillIdle polls /v1/statz until the spill writer has made no write for
// three consecutive polls, so the write-through queue the warm-up filled is
// drained before timing starts.
func (p *heterodProc) waitSpillIdle(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	last, stable := uint64(1<<63), 0
	for stable < 3 {
		s, err := p.statz()
		if err != nil {
			return err
		}
		if w := s.Spill.Writes + s.Spill.DroppedWrites + s.Spill.FailedWrites; w == last {
			stable++
		} else {
			last, stable = w, 0
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("spill writer still busy after %s", limit)
		}
		time.Sleep(20 * time.Millisecond)
	}
	return nil
}

// peakRSSMB is the process's resident high-water mark (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM missing from /proc status")
}

// clockTicks is USER_HZ, the unit of /proc CPU times on Linux.
const clockTicks = 100

// procCPUSeconds is the user+system CPU time a process has used.
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) / clockTicks, nil
}

// selfCPUSeconds is the user+system CPU time this process has used.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// fsName names the filesystem holding dir, for the run metadata.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0x01021994: "tmpfs", 0xef53: "ext4", 0x9123683e: "btrfs", 0x58465342: "xfs",
		0x794c7630: "overlayfs", 0x6969: "nfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// newSpillDir makes a fresh spill directory under cfg.out.
func newSpillDir(cfg config, tag string) (string, error) {
	base := filepath.Join(cfg.out, "spill")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, tag+"-")
}
