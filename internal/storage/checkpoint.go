package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// Checkpoint format "DMC1": a single binary page holding a model snapshot,
// used by the parameter server for crash recovery. Layout (little-endian):
//
//	magic "DMC1" | uint64 clock | uint64 n | n × float64 bits
//
// Checkpoints are written to a temporary file in the destination directory,
// synced, and atomically renamed over the target path, so a reader never
// observes a torn or partially written snapshot — the file either holds the
// previous complete checkpoint or the new one.
const checkpointMagic = "DMC1"

// WriteCheckpoint atomically persists (clock, w) to path.
func WriteCheckpoint(path string, clock uint64, w []float64) error {
	buf := make([]byte, 4+8+8+8*len(w))
	copy(buf, checkpointMagic)
	binary.LittleEndian.PutUint64(buf[4:], clock)
	binary.LittleEndian.PutUint64(buf[12:], uint64(len(w)))
	for i, v := range w {
		binary.LittleEndian.PutUint64(buf[20+8*i:], math.Float64bits(v))
	}
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".ck-*")
	if err != nil {
		return fmt.Errorf("storage: checkpoint: %w", err)
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("storage: checkpoint: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		return cleanup(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return cleanup(err)
	}
	return nil
}

// ReadCheckpoint loads a checkpoint written by WriteCheckpoint.
func ReadCheckpoint(path string) (clock uint64, w []float64, err error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, fmt.Errorf("storage: checkpoint: %w", err)
	}
	if len(buf) < 20 || string(buf[:4]) != checkpointMagic {
		return 0, nil, fmt.Errorf("storage: checkpoint %s: bad header", path)
	}
	clock = binary.LittleEndian.Uint64(buf[4:])
	n := binary.LittleEndian.Uint64(buf[12:])
	if n > uint64(len(buf)-20)/8 {
		return 0, nil, fmt.Errorf("storage: checkpoint %s: truncated (%d floats claimed, %d bytes of payload)", path, n, len(buf)-20)
	}
	if uint64(len(buf)-20) != 8*n {
		return 0, nil, fmt.Errorf("storage: checkpoint %s: %d trailing bytes", path, uint64(len(buf)-20)-8*n)
	}
	w = make([]float64, n)
	for i := range w {
		w[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[20+8*i:]))
	}
	return clock, w, nil
}
