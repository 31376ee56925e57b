package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestDebugServer(t *testing.T) {
	// The default registry outlives a run, so -count=N sees the sum.
	c := NewCounter("obs_debug_server_test_total", "test counter")
	c.Add(5)
	srv, err := StartDebugServer("localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	code, body := get(t, base+"/metrics")
	if code != http.StatusOK || !strings.Contains(body, fmt.Sprint("obs_debug_server_test_total ", c.Value())) {
		t.Errorf("/metrics: code %d body %q", code, body)
	}

	code, body = get(t, base+"/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("/debug/vars: code %d", code)
	}
	var vars map[string]any
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if _, ok := vars["memstats"]; !ok {
		t.Error("/debug/vars missing memstats")
	}
	if _, ok := vars["metrics"]; !ok {
		t.Error("/debug/vars missing the registry bridge")
	}

	code, body = get(t, base+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/: code %d", code)
	}

	// The index lists every path RegisterDebugHandlers mounts (the pprof
	// subpaths through their /debug/pprof/ index), and each one it lists
	// answers.
	code, body = get(t, base+"/")
	if code != http.StatusOK {
		t.Fatalf("/: code %d", code)
	}
	listed := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "/") {
			listed[line] = true
		}
	}
	for _, path := range []string{"/metrics", "/debug/vars", "/debug/pprof/", "/debug/loglevel"} {
		if !listed[path] {
			t.Errorf("index %q does not list mounted path %s", body, path)
		}
	}
	for path := range listed {
		if code, _ := get(t, base+path); code != http.StatusOK {
			t.Errorf("index lists %s, which answers %d", path, code)
		}
	}
}

// TestDebugServerGracefulShutdown pins the Shutdown contract the CLIs and
// the multiply server rely on at exit: a scrape in flight when Shutdown is
// called completes with its full body instead of being truncated, and new
// connections are refused.
func TestDebugServerGracefulShutdown(t *testing.T) {
	c := NewCounter("obs_debug_shutdown_test_total", "test counter")
	c.Add(1)
	srv, err := StartDebugServer("localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr()

	// Start a scrape, then shut down while it is (plausibly) in flight.
	type result struct {
		body string
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			ch <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		ch <- result{body: string(body), err: err}
	}()
	if err := srv.ShutdownTimeout(2 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	r := <-ch
	// The scrape either completed fully (body intact) or never connected
	// (listener already closed) — partial bodies are the bug.
	if r.err == nil && !strings.Contains(r.body, fmt.Sprint("obs_debug_shutdown_test_total ", c.Value())) {
		t.Errorf("scrape racing shutdown returned truncated body %q", r.body)
	}

	// After shutdown the listener is gone.
	if _, err := http.Get(base + "/metrics"); err == nil {
		t.Error("server still accepting connections after Shutdown")
	}
}
