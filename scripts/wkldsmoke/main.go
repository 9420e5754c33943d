// Command wkldsmoke is the CI capture→replay equivalence test: it boots
// a real ddcserver with -workload-capture, drives a deterministic mixed
// workload over HTTP while folding every live answer into order-
// sensitive checksums, shuts the server down gracefully (which flushes
// the capture), then replays the capture with ddcbench -replay under
// every prefix-sum backend and requires the replayed checksums to match
// the live ones bit-exactly, and the replay's offline profile to count
// the traffic it drove. It runs the same traffic twice: against a plain
// in-memory cube, and against a durable store behind the buffered write
// front with an hour-long merger interval, so no write reaches the tree
// before the shutdown drain. Standard library only.
//
//	go build -o /tmp/ddcserver ./cmd/ddcserver
//	go build -o /tmp/ddcbench ./cmd/ddcbench
//	go run ./scripts/wkldsmoke -server /tmp/ddcserver -bench /tmp/ddcbench
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

var backends = []string{"auto", "classic", "blocked", "blockfenwick"}

func main() {
	server := flag.String("server", "", "path to a built ddcserver binary")
	bench := flag.String("bench", "", "path to a built ddcbench binary")
	timeout := flag.Duration("timeout", 15*time.Second, "readiness deadline")
	flag.Parse()
	if *server == "" || *bench == "" {
		fatalf("wkldsmoke: -server and -bench are required")
	}
	if err := run(*server, *bench, *timeout); err != nil {
		fatalf("wkldsmoke: %v", err)
	}
	fmt.Println("wkldsmoke: ok")
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

// checksums folds query answers in execution order — the same
// fingerprint ddcbench's replay summary reports.
type checksums struct {
	values int
	sum    int64
	xor    uint64
}

func (c *checksums) mix(v int64) {
	c.values++
	c.sum += v
	c.xor ^= uint64(v)
}

// The traffic drive sends: 24 adds and 2 sets, then 12 range sums and
// one batch of 3 boxes.
const (
	drivenWrites = 26
	drivenReads  = 15
)

func run(server, bench string, timeout time.Duration) error {
	dir, err := os.MkdirTemp("", "wkldsmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := pass(server, bench, timeout, filepath.Join(dir, "plain")); err != nil {
		return fmt.Errorf("in-memory cube: %v", err)
	}
	err = pass(server, bench, timeout, filepath.Join(dir, "buffered"),
		"-data", filepath.Join(dir, "buffered", "data"), "-buffered", "-buffer-flush-interval", "1h")
	if err != nil {
		return fmt.Errorf("buffered store: %v", err)
	}
	return nil
}

// pass boots one ddcserver (serverArgs added to its command line) with
// a capture in dir, drives the traffic, and checks the capture's replay
// under every backend.
func pass(server, bench string, timeout time.Duration, dir string, serverArgs ...string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	capture := filepath.Join(dir, "capture.bin")

	port, err := freePort()
	if err != nil {
		return err
	}
	base := fmt.Sprintf("http://127.0.0.1:%d", port)
	cmd := exec.Command(server, append([]string{
		"-dims", "64,64",
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-workload-capture", capture,
		"-capture-sample", "1"}, serverArgs...)...)
	cmd.Stderr = os.Stderr
	cmd.Stdout = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting %s: %v", server, err)
	}
	defer cmd.Process.Kill()
	if err := pollReady(base, timeout); err != nil {
		return err
	}

	live, err := drive(base)
	if err != nil {
		return err
	}
	if live.values == 0 {
		return fmt.Errorf("drove no queries")
	}

	// Graceful shutdown flushes and closes the capture.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signalling server: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("server exit: %v", err)
		}
	case <-time.After(timeout):
		return fmt.Errorf("server did not exit within %v of SIGTERM", timeout)
	}

	for _, be := range backends {
		rep, err := replay(bench, capture, be, filepath.Join(dir, "replay_"+be+".json"))
		if err != nil {
			return err
		}
		if rep.QueryValues != live.values || rep.SumsSum != live.sum || rep.SumsXor != live.xor {
			return fmt.Errorf("backend %s: replay (values=%d sum=%d xor=%d) != live (values=%d sum=%d xor=%d)",
				be, rep.QueryValues, rep.SumsSum, rep.SumsXor, live.values, live.sum, live.xor)
		}
		if err := checkProfile(rep.Profile); err != nil {
			return fmt.Errorf("backend %s: %v", be, err)
		}
		fmt.Printf("wkldsmoke: %s replay matches live: %d query values, sum %d, xor %x\n",
			be, rep.QueryValues, rep.SumsSum, rep.SumsXor)
	}
	return nil
}

// checkProfile requires the replay's offline profile to count the
// traffic drive sent: every write and every query box once, each on
// one heatmap cell.
func checkProfile(p profile) error {
	var reads, writes uint64
	for _, n := range p.Heatmap.Read {
		reads += n
	}
	for _, n := range p.Heatmap.Write {
		writes += n
	}
	if p.Writes != drivenWrites || p.Reads != drivenReads || writes != drivenWrites || reads != drivenReads {
		return fmt.Errorf("profile counts writes=%d reads=%d (planes %d/%d), want %d/%d",
			p.Writes, p.Reads, writes, reads, drivenWrites, drivenReads)
	}
	return nil
}

// drive runs the deterministic workload: point adds and sets across the
// domain, single range sums, and one batch — every operation kind the
// capture format records.
func drive(base string) (*checksums, error) {
	live := &checksums{}
	// Updates: a diagonal of adds plus a couple of sets (captures must
	// distinguish the two, or replayed state diverges).
	for i := 0; i < 24; i++ {
		p := fmt.Sprintf("[%d,%d]", (i*7)%64, (i*13)%64)
		if err := postOK(base+"/v1/add", fmt.Sprintf(`{"point":%s,"delta":%d}`, p, i+1)); err != nil {
			return nil, err
		}
	}
	if err := postOK(base+"/v1/set", `{"point":[5,7],"value":1000}`); err != nil {
		return nil, err
	}
	if err := postOK(base+"/v1/set", `{"point":[5,7],"value":250}`); err != nil {
		return nil, err
	}
	// Single range sums.
	for i := 0; i < 12; i++ {
		lo0, lo1 := (i*5)%32, (i*3)%32
		hi0, hi1 := lo0+(i*11)%32, lo1+(i*9)%32
		var out struct {
			Sum *int64 `json:"sum"`
		}
		url := fmt.Sprintf("%s/v1/sum?range=%d,%d:%d,%d", base, lo0, lo1, hi0, hi1)
		resp, err := http.Get(url)
		if err != nil {
			return nil, err
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || resp.StatusCode != 200 || out.Sum == nil {
			return nil, fmt.Errorf("GET %s: status %d (err %v)", url, resp.StatusCode, err)
		}
		live.mix(*out.Sum)
	}
	// One batch: the capture logs it as a single batch record whose
	// replay must produce the same sums in the same order.
	var batch struct {
		Sums []int64 `json:"sums"`
	}
	body := `{"queries":[{"lo":[0,0],"hi":[31,31]},{"lo":[5,7],"hi":[5,7]},{"lo":[10,10],"hi":[60,60]}]}`
	resp, err := http.Post(base+"/v1/sum/batch", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		return nil, err
	}
	err = json.NewDecoder(resp.Body).Decode(&batch)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 || len(batch.Sums) != 3 {
		return nil, fmt.Errorf("sum/batch: status %d sums %v (err %v)", resp.StatusCode, batch.Sums, err)
	}
	for _, v := range batch.Sums {
		live.mix(v)
	}
	return live, nil
}

// replaySummary mirrors the ddcbench report's replay block.
type replaySummary struct {
	Backend     string  `json:"backend"`
	Records     int     `json:"records"`
	QueryValues int     `json:"query_values"`
	SumsSum     int64   `json:"sums_sum"`
	SumsXor     uint64  `json:"sums_xor"`
	Profile     profile `json:"profile"`
}

// profile is the part of the replay's offline profile checkProfile reads.
type profile struct {
	Reads   uint64 `json:"reads"`
	Writes  uint64 `json:"writes"`
	Heatmap struct {
		Read  []uint64 `json:"read"`
		Write []uint64 `json:"write"`
	} `json:"heatmap"`
}

func replay(bench, capture, backend, out string) (*replaySummary, error) {
	cmd := exec.Command(bench, "-replay", capture, "-backend", backend, "-json", out)
	cmd.Stderr = os.Stderr
	cmd.Stdout = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("ddcbench -replay -backend %s: %v", backend, err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		return nil, err
	}
	var report struct {
		Replay *replaySummary `json:"replay"`
	}
	if err := json.Unmarshal(raw, &report); err != nil {
		return nil, fmt.Errorf("parsing %s: %v", out, err)
	}
	if report.Replay == nil {
		return nil, fmt.Errorf("%s: no replay block", out)
	}
	return report.Replay, nil
}

func postOK(url, body string) error {
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		return fmt.Errorf("POST %s: status %d", url, resp.StatusCode)
	}
	return nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func pollReady(base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == 200 {
				return nil
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("server not ready within %v", timeout)
}
