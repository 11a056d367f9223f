package main

import (
	"fmt"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// tape is a fixed-capacity append-only record buffer mapped outside the Go
// heap. The harness keeps its per-update bookkeeping (delivered streams,
// displayed alerts, latency samples) on tapes so that heap_mb measures the
// pipeline's own memory, not the harness's, and so the garbage collector
// never scans it. Pages are touched only as records land, so a generous
// capacity costs address space, not memory.
type tape[T any] struct {
	mem  []byte
	recs []T
	n    atomic.Int64
}

func newTape[T any](capacity int) (*tape[T], error) {
	var zero T
	size := capacity * int(unsafe.Sizeof(zero))
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		return nil, fmt.Errorf("map %d-byte tape: %w", size, err)
	}
	return &tape[T]{mem: mem, recs: unsafe.Slice((*T)(unsafe.Pointer(&mem[0])), capacity)}, nil
}

// add appends one record; it is safe for concurrent writers. A full tape
// drops the record and reports false: the reference tapes turn that into
// a run error, the latency and span tapes are sized far beyond a run.
func (t *tape[T]) add(r T) bool {
	i := t.n.Add(1) - 1
	if i >= int64(len(t.recs)) {
		return false
	}
	t.recs[i] = r
	return true
}

// all returns the records written so far. Call it only after every writer
// has stopped.
func (t *tape[T]) all() []T {
	n := t.n.Load()
	if n > int64(len(t.recs)) {
		n = int64(len(t.recs))
	}
	return t.recs[:n]
}

func (t *tape[T]) release() {
	if t != nil && t.mem != nil {
		_ = syscall.Munmap(t.mem)
		t.mem, t.recs = nil, nil
	}
}
