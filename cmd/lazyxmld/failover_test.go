package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// readyzInfo is the identity block every member reports on /readyz.
type readyzInfo struct {
	Ready      bool   `json:"ready"`
	Role       string `json:"role"`
	Epoch      int64  `json:"epoch"`
	RelayDepth int    `json:"relayDepth"`
	ReplAddr   string `json:"replAddr"`
	Upstream   string `json:"upstream"`
}

func getReadyz(base string) (readyzInfo, error) {
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		return readyzInfo{}, err
	}
	defer resp.Body.Close()
	var info readyzInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return readyzInfo{}, err
	}
	return info, nil
}

func pollUntil(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestSentinelFailoverChainSubprocess is the full self-healing story as
// real processes: a P → A → B relay chain with a co-located sentinel on
// every member takes acknowledged writes; P is SIGKILLed; the sentinels
// latch it down and promote the most-caught-up survivor with the
// fencing token (concurrent sentinels — one loses on the 409); writes
// keep flowing through the new regime; P restarts with its old primary
// state and the boot-time census demotes it into the new regime, where
// the forced re-seed converges it. Zero acknowledged writes lost.
func TestSentinelFailoverChainSubprocess(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos e2e")
	}
	bin := buildDaemon(t)
	pdir, adir, bdir := t.TempDir(), t.TempDir(), t.TempDir()
	paddr, aaddr, baddr := freeAddr(t), freeAddr(t), freeAddr(t)
	rp, ra, rb := freeAddr(t), freeAddr(t), freeAddr(t)
	pbase, abase := "http://"+paddr, "http://"+aaddr
	bbase := "http://" + baddr
	peerFlag := pbase + "," + abase + "," + bbase

	start := func(addr, dir, follow, relay string) *exec.Cmd {
		args := []string{"-addr", addr, "-journal", dir, "-shards", "2",
			"-repl", relay, "-peers", peerFlag, "-sentinel"}
		if follow != "" {
			args = append(args, "-follow", follow)
		}
		cmd := exec.Command(bin, args...)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		return cmd
	}

	primary := start(paddr, pdir, "", rp)
	defer func() {
		primary.Process.Kill()
		primary.Wait()
	}()
	waitHealthy(t, primary, pbase)

	relayA := start(aaddr, adir, rp, ra)
	defer func() {
		relayA.Process.Signal(syscall.SIGTERM)
		relayA.Wait()
	}()
	waitHealthy(t, relayA, abase)

	tailB := start(baddr, bdir, ra, rb)
	defer func() {
		tailB.Process.Signal(syscall.SIGTERM)
		tailB.Wait()
	}()
	waitHealthy(t, tailB, bbase)

	// Acknowledged writes through the primary.
	var acked []string
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("doc-%d", i)
		if status, body := httpDo(t, "PUT", pbase+"/docs/"+name, fmt.Sprintf("<d><n>%d</n></d>", i)); status != http.StatusCreated {
			t.Fatalf("PUT %s: %d %s", name, status, body)
		}
		acked = append(acked, name)
	}
	hasAll := func(base string, names []string) bool {
		for _, n := range names {
			resp, err := http.Get(base + "/docs/" + n)
			if err != nil {
				return false
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return false
			}
		}
		return true
	}
	pollUntil(t, "chain convergence before the kill", 30*time.Second, func() bool {
		return hasAll(abase, acked) && hasAll(bbase, acked)
	})

	// The topology surface the sentinel steers by: relay depths 1 and 2,
	// and the co-located sentinel's snapshot in /stats.
	pollUntil(t, "relay depths to settle", 15*time.Second, func() bool {
		ai, erra := getReadyz(abase)
		bi, errb := getReadyz(bbase)
		return erra == nil && errb == nil && ai.RelayDepth == 1 && bi.RelayDepth == 2
	})
	if _, body := httpDo(t, "GET", pbase+"/stats", ""); !strings.Contains(body, `"sentinel"`) {
		t.Fatalf("/stats with -sentinel lacks the sentinel block: %s", body)
	}

	// Kill the primary outright — no drain, no goodbye.
	primary.Process.Kill()
	primary.Wait()

	// The sentinels elect and promote exactly one survivor at epoch 1.
	var winBase, loseBase string
	pollUntil(t, "a survivor to be promoted", 60*time.Second, func() bool {
		ai, erra := getReadyz(abase)
		bi, errb := getReadyz(bbase)
		if erra != nil || errb != nil {
			return false
		}
		switch {
		case ai.Role == "primary" && bi.Role == "follower":
			winBase, loseBase = abase, bbase
		case bi.Role == "primary" && ai.Role == "follower":
			winBase, loseBase = bbase, abase
		default:
			return false
		}
		wi, _ := getReadyz(winBase)
		return wi.Epoch == 1
	})

	// Writes flow through the new regime and reach the other survivor.
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("after-%d", i)
		if status, body := httpDo(t, "PUT", winBase+"/docs/"+name, "<d><y/></d>"); status != http.StatusCreated {
			t.Fatalf("PUT %s on new primary: %d %s", name, status, body)
		}
		acked = append(acked, name)
	}
	pollUntil(t, "post-failover replication", 30*time.Second, func() bool {
		return hasAll(loseBase, acked)
	})

	// The deposed primary restarts with its old state and *no* -follow:
	// left alone it would claim primacy at epoch 0. The boot census must
	// demote it into the new regime, and the forced re-seed converges it.
	revived := start(paddr, pdir, "", rp)
	defer func() {
		revived.Process.Signal(syscall.SIGTERM)
		revived.Wait()
	}()
	waitHealthy(t, revived, pbase)
	pollUntil(t, "deposed primary to rejoin as a follower", 60*time.Second, func() bool {
		pi, err := getReadyz(pbase)
		return err == nil && pi.Role == "follower" && pi.Epoch == 1
	})
	pollUntil(t, "deposed primary to converge", 60*time.Second, func() bool {
		return hasAll(pbase, acked)
	})
	// And it is write-fenced: the new primary's address is in the 403.
	if status, _ := httpDo(t, "PUT", pbase+"/docs/nope", "<nope/>"); status != http.StatusForbidden {
		t.Fatalf("write on rejoined deposed primary: %d, want 403", status)
	}

	// Zero lost acknowledged writes, everywhere.
	for _, base := range []string{winBase, loseBase, pbase} {
		if !hasAll(base, acked) {
			t.Fatalf("%s is missing acknowledged writes", base)
		}
	}
}
