package core

import (
	"fmt"
	"runtime/debug"
)

// Panic isolation. A panic anywhere in the query path must fail only the
// query that triggered it, never the process and never a sibling query.
// Every phase runs inside a frame whose recover converts the panic into
// an error, and each slice of a scatter-gather recovers on its own
// goroutine, so a crashed slice is dropped rather than the query.

// PanicError is a recovered query-path panic converted into an error:
// the crash site, the panic value, and the captured stack. When the
// panic value is itself an error (e.g. a *postings.BlockCorruptError
// escaping a strict decode), Unwrap exposes it so errors.As can classify
// the failure through the recovery boundary — the shard layer uses this
// to attribute a shard loss to corruption rather than a generic panic.
type PanicError struct {
	// What names the execution site that panicked.
	What string
	// Value is the recovered panic value.
	Value interface{}
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("core: panic in %s: %v\n%s", e.What, e.Value, e.Stack)
}

// Unwrap returns the panic value when it was an error, nil otherwise.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// recoverToError is deferred by functions with a named error result:
// `defer recoverToError(&err, "search")` converts a panic into a query
// error carrying the captured stack, so the crash site is diagnosable
// from the error alone.
func recoverToError(err *error, what string) {
	if r := recover(); r != nil {
		*err = &PanicError{What: what, Value: r, Stack: debug.Stack()}
	}
}
