package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"visualinux/internal/core"
	"visualinux/internal/kernelsim"
	"visualinux/internal/obs"
)

// Every JSON route answers 413 to a body one byte over the shared cap.
func TestJSONBodyCap(t *testing.T) {
	s, _ := core.NewKernelSession(kernelsim.Options{})
	srv := New(s)
	const head, tail = `{"x":"`, `"}`
	body := head + strings.Repeat("a", maxJSONBody+1-len(head)-len(tail)) + tail
	if len(body) != maxJSONBody+1 {
		t.Fatalf("body is %d bytes, want %d", len(body), maxJSONBody+1)
	}
	for _, path := range []string{"/api/vplot", "/api/vctrl", "/api/vchat", "/sessions", "/fleet/query"} {
		if code, out := do(srv, "POST", path, body); code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: %d %.200s, want 413", path, code, out)
		}
	}
}

// A core path naming a FIFO must be refused at once, not block the request
// until some writer opens the other end.
func TestCoreSessionRejectsFIFO(t *testing.T) {
	mgr := core.NewSessionManager(core.ManagerOptions{}, obs.NewObserver())
	ts := httptest.NewServer(NewManaged(mgr, nil))
	t.Cleanup(ts.Close)
	fifo := filepath.Join(t.TempDir(), "dump.fifo")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Fatal(err)
	}
	// Registered after ts.Close so it runs first: should a handler be stuck
	// opening the FIFO, this releases it and the server can shut down.
	t.Cleanup(func() {
		if f, err := os.OpenFile(fifo, os.O_RDWR, 0); err == nil {
			f.Close()
		}
	})

	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Post(ts.URL+"/sessions", "application/json",
		strings.NewReader(fmt.Sprintf(`{"id":"fifo","core":%q}`, fifo)))
	if err != nil {
		t.Fatalf("POST /sessions with a FIFO core path: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", resp.StatusCode)
	}
}
