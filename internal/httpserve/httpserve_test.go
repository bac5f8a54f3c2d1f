package httpserve

import (
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestStartServeShutdown(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/ping", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "pong")
	})
	MountPprof(mux)

	s, err := Start("127.0.0.1:0", mux)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	resp, err := http.Get("http://" + s.Addr() + "/ping")
	if err != nil {
		t.Fatalf("GET /ping: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "pong" {
		t.Fatalf("GET /ping = %q, want pong", body)
	}

	// The pprof index must be mounted on the private mux.
	resp, err = http.Get("http://" + s.Addr() + "/debug/pprof/")
	if err != nil {
		t.Fatalf("GET /debug/pprof/: %v", err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "profile") {
		t.Fatalf("GET /debug/pprof/ = %d %q, want a pprof index", resp.StatusCode, body)
	}

	if err := s.Shutdown(2 * time.Second); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := http.Get("http://" + s.Addr() + "/ping"); err == nil {
		t.Fatal("server still serving after Shutdown")
	}
}

func TestStartFailsFastOnBadAddr(t *testing.T) {
	s, err := Start("127.0.0.1:0", http.NewServeMux())
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer s.Shutdown(time.Second)
	// Binding the same port again must fail synchronously.
	if _, err := Start(s.Addr(), http.NewServeMux()); err == nil {
		t.Fatal("second Start on a taken port succeeded")
	}
	if _, err := Start("definitely not an address", nil); err == nil {
		t.Fatal("Start on a malformed address succeeded")
	}
}

// lowerTimeouts sets the connection timeouts for one test and returns the
// restore.
func lowerTimeouts(header, idle time.Duration) (restore func()) {
	oldHeader, oldIdle := readHeaderTimeout, idleTimeout
	readHeaderTimeout, idleTimeout = header, idle
	return func() { readHeaderTimeout, idleTimeout = oldHeader, oldIdle }
}

// TestStalledHeaderIsClosed: a connection that sends part of a request's
// headers and stops is closed once the header timeout passes, and so is
// one that idles after a response.
func TestStalledHeaderIsClosed(t *testing.T) {
	defer lowerTimeouts(100*time.Millisecond, 100*time.Millisecond)()
	mux := http.NewServeMux()
	mux.HandleFunc("/ping", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "pong")
	})
	s, err := Start("127.0.0.1:0", mux)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer s.Shutdown(time.Second)

	for _, req := range []string{
		"GET /ping HTTP/1.1\r\nHost: x\r\n",     // no blank line ends the headers
		"GET /ping HTTP/1.1\r\nHost: x\r\n\r\n", // a whole request, then idle
	} {
		c, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.WriteString(c, req); err != nil {
			t.Fatal(err)
		}
		// Reading to EOF means the server closed the connection; the
		// client's deadline is far past the server's timeouts.
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.ReadAll(c); err != nil {
			t.Errorf("%q: connection not closed by the server: %v", req, err)
		}
		c.Close()
	}
}

// TestLongPollOutlivesHeaderTimeout: the timeouts bound a connection's
// headers and idle time only, so a handler that runs well past them — a
// /run long poll — still answers, with its request context live.
func TestLongPollOutlivesHeaderTimeout(t *testing.T) {
	defer lowerTimeouts(50*time.Millisecond, 50*time.Millisecond)()
	mux := http.NewServeMux()
	mux.HandleFunc("/poll", func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(300 * time.Millisecond):
			io.WriteString(w, "done")
		case <-r.Context().Done():
		}
	})
	s, err := Start("127.0.0.1:0", mux)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer s.Shutdown(time.Second)
	resp, err := http.Get("http://" + s.Addr() + "/poll")
	if err != nil {
		t.Fatalf("GET /poll: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "done" {
		t.Fatalf("GET /poll = %q, want done", body)
	}
}
