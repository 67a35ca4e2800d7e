package main

import (
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/geometry"
	"repro/internal/wire"
)

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-nope"}); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run([]string{"-addr", "999.999.999.999:xx"}); err == nil {
		t.Error("bad address accepted")
	}
	if err := run([]string{"-overflow", "drop-everything"}); err == nil {
		t.Error("bad overflow policy accepted")
	}
	if err := run([]string{"-log-level", "chatty"}); err == nil {
		t.Error("bad log level accepted")
	}
	if err := run([]string{"-metrics-addr", "999.999.999.999:xx"}); err == nil {
		t.Error("bad metrics address accepted")
	}
}

func TestRunServesUntilSignalled(t *testing.T) {
	const addr = "127.0.0.1:17171"
	done := make(chan error, 1)
	go func() { done <- run([]string{"-addr", addr}) }()

	// Wait until the daemon accepts connections, then exercise it.
	var cli *wire.Client
	deadline := time.Now().Add(3 * time.Second)
	for {
		var err error
		cli, err = wire.Dial(addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never came up: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := cli.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	cli.Close()

	// SIGTERM triggers a clean shutdown.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not shut down on SIGTERM")
	}
}

// httpGet fetches a URL without connection reuse, so the test's HTTP
// goroutines cannot pollute the leak check below.
func httpGet(t *testing.T, url string) (string, http.Header) {
	t.Helper()
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	defer client.CloseIdleConnections()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(body), resp.Header
}

func TestRunMetricsEndpoint(t *testing.T) {
	const (
		addr        = "127.0.0.1:17173"
		metricsAddr = "127.0.0.1:17174"
	)
	baseline := runtime.NumGoroutine()

	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", addr,
			"-metrics-addr", metricsAddr,
			"-trace-sample", "1",
			"-log-level", "warn",
		})
	}()

	var cli *wire.Client
	deadline := time.Now().Add(3 * time.Second)
	for {
		var err error
		cli, err = wire.Dial(addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never came up: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if _, err := cli.Subscribe(geometry.NewRect(0, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Publish(geometry.Point{5}, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-cli.Events():
	case <-time.After(2 * time.Second):
		t.Fatal("no event within deadline")
	}

	// The scrape must be Prometheus text exposition and include the
	// broker, index and wire families. Nothing in the daemon plans
	// dispatch, so no pubsub_dispatch_ family is registered.
	body, hdr := httpGet(t, "http://"+metricsAddr+"/metrics")
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("metrics content type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE pubsub_broker_publish_seconds histogram",
		"pubsub_broker_publish_seconds_count 1",
		"pubsub_broker_published_total 1",
		"pubsub_index_nodes_visited",
		"pubsub_wire_active_connections 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	if strings.Contains(body, "pubsub_dispatch_") {
		t.Error("metrics output holds a pubsub_dispatch_ family, which nothing in the daemon updates")
	}

	// /metrics?format=json serves the JSON view of the same registry.
	vars, _ := httpGet(t, "http://"+metricsAddr+"/metrics?format=json")
	var decoded map[string]any
	if err := json.Unmarshal([]byte(vars), &decoded); err != nil {
		t.Fatalf("/metrics?format=json is not JSON: %v", err)
	}
	if _, ok := decoded["pubsub_broker_published_total"]; !ok {
		t.Error("/metrics?format=json missing pubsub_broker_published_total")
	}

	// pprof rides on the same listener.
	if idx, _ := httpGet(t, "http://"+metricsAddr+"/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Error("pprof index did not render")
	}

	// Health probes: boot finished (subscribe and publish both worked),
	// so liveness and readiness must both be green.
	if body, _ := httpGet(t, "http://"+metricsAddr+"/healthz"); !strings.Contains(body, `"healthy"`) {
		t.Errorf("/healthz body = %s", body)
	}
	if body, _ := httpGet(t, "http://"+metricsAddr+"/readyz"); !strings.Contains(body, `"ready"`) {
		t.Errorf("/readyz body = %s", body)
	}

	// Consumer lag: one subscription fully caught up (head 1, delivered
	// 1), one live connection.
	lagBody, _ := httpGet(t, "http://"+metricsAddr+"/debug/lag")
	var lag struct {
		Head  uint64            `json:"head"`
		Subs  []json.RawMessage `json:"subs"`
		Conns []json.RawMessage `json:"conns"`
	}
	if err := json.Unmarshal([]byte(lagBody), &lag); err != nil {
		t.Fatalf("/debug/lag is not JSON: %v\n%s", err, lagBody)
	}
	if lag.Head != 1 || len(lag.Subs) != 1 || len(lag.Conns) != 1 {
		t.Errorf("/debug/lag = head %d, %d subs, %d conns; want 1/1/1\n%s",
			lag.Head, len(lag.Subs), len(lag.Conns), lagBody)
	}

	// Index introspection: the live rectangle population and its parts.
	idxBody, _ := httpGet(t, "http://"+metricsAddr+"/debug/index")
	var idx struct {
		Subscriptions int `json:"subscriptions"`
		ShardCount    int `json:"shard_count"`
	}
	if err := json.Unmarshal([]byte(idxBody), &idx); err != nil {
		t.Fatalf("/debug/index is not JSON: %v\n%s", err, idxBody)
	}
	if idx.Subscriptions != 1 || idx.ShardCount < 1 {
		t.Errorf("/debug/index = %+v, want 1 subscription in at least one part", idx)
	}

	cli.Close()
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not shut down on SIGTERM")
	}

	// Everything run() started must wind down: no goroutine leak from
	// the broker, wire server, metrics server, or signal plumbing.
	deadline = time.Now().Add(3 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
