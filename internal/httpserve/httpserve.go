// Package httpserve is the shared HTTP server plumbing for this module's
// long-running endpoints: the gossipsim -metrics scrape server and the
// gossipd daemon. It standardizes the four behaviors both need and that
// are easy to get subtly wrong when inlined per command:
//
//   - fail-fast binding: Start listens before returning, so a taken port
//     or bad address fails the command immediately instead of a goroutine
//     logging after the caller has moved on;
//   - connection timeouts: a connection that stalls before its request's
//     headers are in, or idles between requests, is closed instead of
//     held until Shutdown;
//   - graceful shutdown: Shutdown stops accepting, lets in-flight
//     requests (scrapes, event streams) finish within a timeout, and only
//     then tears the server down;
//   - pprof mounting: MountPprof hand-mounts Go's profiling handlers on a
//     private mux (the net/http/pprof side-effect registration only
//     covers http.DefaultServeMux, which these servers deliberately do
//     not use).
package httpserve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// readHeaderTimeout bounds how long a connection may take to send a
// request's headers, and idleTimeout how long a keep-alive connection may
// wait for its next request (longer than net/http's client keeps an idle
// connection, 90 s). Neither bounds a handler. A WriteTimeout would: its
// deadline runs from the request's headers, so a /run long poll or a
// follow stream answering after it loses its response. ReadTimeout stays
// unset too; past the headers it bounds only reading a request's body.
// Constants of the server: only tests lower them.
var (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// Server is a running HTTP server bound to a concrete address.
type Server struct {
	srv *http.Server
	ln  net.Listener
}

// Start binds addr (host:port; port 0 picks a free one) and serves h on
// it. The listen happens synchronously — a bind failure is returned
// here, never logged from a goroutine — and the accept loop runs in the
// background until Shutdown.
func Start(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("httpserve: cannot listen on %q: %w", addr, err)
	}
	s := &Server{srv: &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}, ln: ln}
	go s.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Shutdown
	return s, nil
}

// Addr returns the bound address ("127.0.0.1:43721"), which differs from
// the requested one when port 0 was used.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Shutdown stops the server gracefully: no new connections, in-flight
// requests get up to timeout to finish, then the server closes. Safe to
// call once; returns the shutdown error, if any (typically a timeout
// with streams still open).
func (s *Server) Shutdown(timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

// MountPprof mounts Go's /debug/pprof handlers on mux. The pprof
// package's init only registers on http.DefaultServeMux; servers built
// on a private mux (all of this module's) mount by hand through this.
func MountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
