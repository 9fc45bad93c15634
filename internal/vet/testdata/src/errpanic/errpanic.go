// Package errpanic is the golden diagnostic package for the errpanic
// analyzer: seeded panics that carry an error, and the precondition panics
// that must stay silent.
package errpanic

import (
	"errors"
	"fmt"
	"os"
)

type readErr struct{ path string }

func (e *readErr) Error() string { return "read " + e.path }

// Seeded bug: the error itself.
func panicErr(path string) []byte {
	b, err := os.ReadFile(path)
	if err != nil {
		panic(err) // want `derives from error value err`
	}
	return b
}

// Seeded bug: the error formatted into a string.
func panicFormatted(path string) {
	if _, err := os.Stat(path); err != nil {
		panic(fmt.Sprintf("stat %s: %v", path, err)) // want `derives from error value err`
	}
}

// Seeded bug: the error's text.
func panicErrorText(err error) {
	panic("failed: " + err.Error()) // want `derives from error value err`
}

// Seeded bug: an error built on the spot.
func panicErrorf(n int) {
	panic(fmt.Errorf("bad n %d", n)) // want `derives from error value fmt.Errorf`
}

// Seeded bug: a concrete error type.
func panicConcrete(path string) {
	panic(&readErr{path}) // want `derives from error value &readErr`
}

// ---- false-positive guards ----

// Guard: a violated precondition names a caller bug, not a runtime failure.
func panicPrecondition(rows, want int) {
	if rows != want {
		panic(fmt.Sprintf("shape: %d rows, want %d", rows, want))
	}
}

// Guard: a constant message.
func panicConstant() {
	panic("unreachable")
}

// Guard: an error handled before the panic is not its argument.
func panicAfterHandled(path string) error {
	if _, err := os.Stat(path); err != nil {
		return fmt.Errorf("stat: %w", err)
	}
	if path == "" {
		panic("empty path passed the stat")
	}
	return nil
}

// Guard: comparing against a sentinel yields a bool, and the message does
// not carry the error.
var errSentinel = errors.New("sentinel")

func panicOnSentinel(err error) {
	if errors.Is(err, errSentinel) {
		panic("sentinel reached a path that excludes it")
	}
}
