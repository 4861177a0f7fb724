package main

import (
	"context"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a goroutine-safe io.Writer: run's listening line and the
// access logger write concurrently.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var listenLine = regexp.MustCompile(`listening on (\S+)`)

// TestRunServesAndShutsDown boots the daemon on an ephemeral port, hits
// /healthz and /v1/compile, then cancels the context and checks the
// graceful-shutdown path returns cleanly.
func TestRunServesAndShutsDown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-quiet"}, &out)
	}()

	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if m := listenLine.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
			break
		}
		select {
		case err := <-done:
			t.Fatalf("daemon exited early: %v\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("no listening line:\n%s", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}

	spec := `{"network": {"name": "t", "layers": [
	  {"name": "c", "iw": 8, "ih": 8, "kw": 3, "kh": 3, "ic": 4, "oc": 4}]},
	  "array": "64x64"}`
	resp, err = http.Post("http://"+addr+"/v1/compile", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"Totals"`) {
		t.Fatalf("compile: %d %s", resp.StatusCode, body)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(shutdownTimeout + 5*time.Second):
		t.Fatal("daemon did not shut down")
	}
	if !strings.Contains(out.String(), "shutting down") {
		t.Errorf("missing drain notice:\n%s", out.String())
	}
}

var pprofLine = regexp.MustCompile(`pprof listening on (\S+)`)

// TestRunPprofEndpoint boots the daemon with the opt-in -pprof listener and
// checks the profile index is served there — and that the API listener does
// not expose it.
func TestRunPprofEndpoint(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-pprof", "127.0.0.1:0", "-quiet"}, &out)
	}()

	var apiAddr, profAddr string
	deadline := time.Now().Add(10 * time.Second)
	for profAddr == "" || apiAddr == "" {
		s := out.String()
		if m := pprofLine.FindStringSubmatch(s); m != nil {
			profAddr = m[1]
		}
		if m := listenLine.FindStringSubmatch(s); m != nil {
			apiAddr = m[1]
		}
		select {
		case err := <-done:
			t.Fatalf("daemon exited early: %v\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("no listening lines:\n%s", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if apiAddr == profAddr {
		t.Fatalf("pprof bound to the API address %s", apiAddr)
	}

	resp, err := http.Get("http://" + profAddr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof index: %d %s", resp.StatusCode, body)
	}

	// The API listener must not serve the profiler.
	resp, err = http.Get("http://" + apiAddr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("API listener serves /debug/pprof/")
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(shutdownTimeout + 5*time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// TestRunVersion checks -version prints the tool name and exits without
// binding a socket.
func TestRunVersion(t *testing.T) {
	var out syncBuffer
	if err := run(context.Background(), []string{"-version"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "vwsdkd ") {
		t.Errorf("version output %q", out.String())
	}
}

// TestRunBadFlags covers flag and listen errors.
func TestRunBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-nonsense"},
		{"-addr", "not-an-address"},
		{"-addr", "127.0.0.1:0", "-pprof", "not-an-address"},
	} {
		var out syncBuffer
		if err := run(context.Background(), args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
	// The engine has no worker pool to size; -max-inflight bounds the
	// compilations.
	var out syncBuffer
	if err := run(context.Background(), []string{"-workers", "2"}, &out); err == nil || !strings.Contains(err.Error(), "not defined: -workers") {
		t.Errorf("-workers 2: err = %v, want an undefined flag", err)
	}
}
