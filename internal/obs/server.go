package obs

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"
)

// Server owns the live-introspection HTTP endpoint for one simulation
// run: it binds eagerly (so a bad -metrics-addr fails at startup, not
// silently in a goroutine), serves a Live's handler in the background,
// and shuts down gracefully — in-flight scrapes finish, bounded by a
// timeout — when the simulation ends.
type Server struct {
	srv  *http.Server
	addr string
	done chan error // Serve's exit status
}

// NewServer builds a server for l's introspection surface.
func NewServer(l *Live) *Server {
	return NewHandlerServer(l.Handler())
}

// NewHandlerServer builds a server for an arbitrary handler — the
// zsimd service daemon reuses the bind-eagerly/serve-background/
// drain-on-shutdown lifecycle around its own API surface. The
// ReadHeaderTimeout bounds how long a slow client may dribble request
// headers before the connection is shed; without it one idle socket per
// worker is all it takes to wedge a drain.
func NewHandlerServer(h http.Handler) *Server {
	return &Server{srv: &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
	}}
}

// Start binds addr and begins serving in a background goroutine. It
// returns the bound address (useful with ":0" in tests) or the bind
// error.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs: binding metrics address %s: %w", addr, err)
	}
	s.addr = ln.Addr().String()
	s.done = make(chan error, 1)
	go func() { s.done <- s.srv.Serve(ln) }()
	return s.addr, nil
}

// Shutdown stops the server gracefully: no new connections, in-flight
// requests run to completion or until timeout elapses, whichever comes
// first. Safe to call once after Start.
func (s *Server) Shutdown(timeout time.Duration) error {
	if s.done == nil {
		return nil // never started
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}
