package transport

import (
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// FUTEX_WAIT and FUTEX_WAKE with FUTEX_PRIVATE_FLAG; package syscall
// names the system call but not its operations.
const (
	futexWaitPrivate = 128
	futexWakePrivate = 129
)

// sleeper is the clock goroutine's wait: sleep for a duration or
// until woken, whichever comes first. On Linux it is a futex wait, which
// the kernel ends about its timer slack late (50 µs by default; DESIGN.md
// §1 "memnet"); a runtime timer in an otherwise idle process is rounded
// up to the netpoller's 1 ms wait (golang/go#44343), which turns every
// sub-millisecond delay into ≈ 1.1 ms.
type sleeper struct {
	// word is 1 from a wake until the wait it ends returns. It is a
	// plain uint32 accessed through sync/atomic functions because the
	// kernel is handed its address.
	word uint32
}

func newSleeper() *sleeper { return &sleeper{} }

// sleep blocks until d has elapsed or wake is called; d < 0 means no
// deadline. A wake that precedes the sleep makes it return at once, so
// none is lost. It may also return early for no reason: callers look
// again at what they were waiting for.
func (s *sleeper) sleep(d time.Duration) {
	var ts *syscall.Timespec
	if d >= 0 {
		t := syscall.NsecToTimespec(int64(d))
		ts = &t
	}
	s.futex(futexWaitPrivate, 0, ts) // sleeps only while word is 0
	atomic.StoreUint32(&s.word, 0)
}

// wake ends the current sleep, or the next one if none is in progress.
func (s *sleeper) wake() {
	if atomic.SwapUint32(&s.word, 1) == 0 {
		s.futex(futexWakePrivate, 1, nil) // wakes at most one waiter
	}
}

// futex makes the system call on word. Its result is dropped: a wait
// ends with 0 (woken), EAGAIN (word was not 0), ETIMEDOUT or EINTR, and
// each of them means "look again"; a wake cannot fail on a valid address.
func (s *sleeper) futex(op, val uintptr, timeout *syscall.Timespec) {
	//otplint:allow atomiccow the kernel is handed the word's address; nothing here reads or writes it
	_, _, _ = syscall.Syscall6(syscall.SYS_FUTEX, uintptr(unsafe.Pointer(&s.word)),
		op, val, uintptr(unsafe.Pointer(timeout)), 0, 0)
}
