package fabric

import (
	"context"
	"fmt"
	"net"
	"sync"

	"choco/internal/nn"
	"choco/internal/serve"
)

// Shard is one backend serving instance of the fabric: a serve.Server
// for client sessions plus the peer listener that answers the router's
// health-probe and stats requests.
type Shard struct {
	// ID names the shard on the router's ring.
	ID string
	// Server is the underlying session server; its Health and Stats
	// are what the peer protocol exposes.
	Server *serve.Server

	peer peerServer
}

// NewShard builds a shard around a compiled inference backend.
func NewShard(id string, backend *nn.InferenceServer, cfg serve.Config) *Shard {
	s := &Shard{ID: id, Server: serve.New(backend, cfg)}
	s.peer.srv = s.Server
	s.peer.logf = func(format string, args ...any) {}
	if cfg.Logf != nil {
		s.peer.logf = cfg.Logf
	}
	return s
}

// Run serves client sessions on clientLn and the peer protocol on
// peerLn until ctx is cancelled, then drains both and returns the
// first error.
func (s *Shard) Run(ctx context.Context, clientLn, peerLn net.Listener) error {
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := s.Server.Serve(ctx, clientLn); err != nil {
			errs <- fmt.Errorf("fabric: shard %s: serve: %w", s.ID, err)
		}
	}()
	go func() {
		defer wg.Done()
		if err := s.peer.serve(ctx, peerLn); err != nil {
			errs <- fmt.Errorf("fabric: shard %s: peer: %w", s.ID, err)
		}
	}()
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}
