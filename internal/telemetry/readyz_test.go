package telemetry

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// TestReadyzDefault: a handler with no readiness check reports ready.
func TestReadyzDefault(t *testing.T) {
	srv := httptest.NewServer(NewHandler(NewRegistry(), nil, nil))
	defer srv.Close()
	code, body, _ := get(t, srv, "/readyz")
	if code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("/readyz = %d %q, want 200 ok", code, body)
	}
}

// TestReadyzDrainFlip is the load-balancer contract: once the serving
// process starts draining, /readyz flips to 503 so new work is routed
// elsewhere, while /healthz stays 200 — the process is alive and must not
// be restarted mid-drain.
func TestReadyzDrainFlip(t *testing.T) {
	var draining atomic.Bool
	srv := httptest.NewServer(NewHandler(NewRegistry(), nil, func() error {
		if draining.Load() {
			return errors.New("scheduler draining")
		}
		return nil
	}))
	defer srv.Close()

	code, body, _ := get(t, srv, "/readyz")
	if code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("ready /readyz = %d %q", code, body)
	}

	draining.Store(true)

	code, body, _ = get(t, srv, "/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining /readyz = %d %q, want 503", code, body)
	}
	if !strings.Contains(body, "draining") {
		t.Fatalf("draining /readyz body %q, want the cause", body)
	}
	code, body, _ = get(t, srv, "/healthz")
	if code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("draining /healthz = %d %q, want 200 (alive, just not ready)", code, body)
	}
}
