package paramserver

import (
	"fmt"
	"sync/atomic"

	"dmml/internal/storage"
)

// CheckpointConfig enables periodic model checkpointing during Train: every
// Every global pushes, the crossing worker pulls the full model and persists
// it (with the push clock) through storage.WriteCheckpoint's atomic-rename
// path. The zero value disables checkpointing.
type CheckpointConfig struct {
	Path  string
	Every int
}

// checkpointer triggers at most one snapshot per Every-push window; the CAS
// on next elects a single writer among concurrently finishing workers.
type checkpointer struct {
	path  string
	every int64
	next  atomic.Int64
	taken atomic.Int64
}

func newCheckpointer(cfg CheckpointConfig) *checkpointer {
	c := &checkpointer{path: cfg.Path, every: int64(cfg.Every)}
	c.next.Store(int64(cfg.Every))
	return c
}

// maybe checkpoints the server model if the global push count crossed the
// next threshold; called by workers after each successful push.
func (c *checkpointer) maybe(ps *Server) error {
	n := ps.pushes.Load()
	for {
		nx := c.next.Load()
		if n < nx {
			return nil
		}
		if c.next.CompareAndSwap(nx, nx+c.every) {
			break
		}
	}
	w, err := ps.Pull()
	if err != nil {
		return fmt.Errorf("paramserver: checkpoint pull: %w", err)
	}
	if err := storage.WriteCheckpoint(c.path, uint64(n), w); err != nil {
		return fmt.Errorf("paramserver: %w", err)
	}
	c.taken.Add(1)
	return nil
}

// RestoreFromCheckpoint overwrites the server's model with the checkpoint at
// path, bypassing the emulated RPC path, and returns the global push clock
// the checkpoint was taken at. It is a warm start: a later Train runs its
// full schedule from tick 0, beginning at the restored weights.
func (s *Server) RestoreFromCheckpoint(path string) (uint64, error) {
	clock, w, err := storage.ReadCheckpoint(path)
	if err != nil {
		return 0, err
	}
	if len(w) != s.dim {
		return 0, fmt.Errorf("paramserver: checkpoint %s has %d weights, want %d", path, len(w), s.dim)
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		copy(sh.w, w[sh.lo:sh.lo+len(sh.w)])
		sh.mu.Unlock()
	}
	return clock, nil
}
