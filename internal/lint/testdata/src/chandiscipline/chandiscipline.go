// Package chandiscipline exercises the chandiscipline analyzer: sends on
// unbuffered or unproven channels must be select-with-default, and inside
// //sensolint:hotpath functions every send must be.
package chandiscipline

// S owns an unbuffered channel; the make site below proves its capacity.
type S struct{ ch chan int }

func newS() *S { return &S{ch: make(chan int)} }

// Positive: a bare send on an unbuffered channel blocks.
func bareUnbuffered(s *S) {
	s.ch <- 1 // want "unbuffered channel"
}

// Positive: a select without default still blocks on an unbuffered send.
func selectNoDefault(s *S, stop chan struct{}) {
	select {
	case s.ch <- 2: // want "unbuffered channel"
	case <-stop:
	}
}

// Positive: a parameter channel has no visible make site.
func unknownParam(ch chan int) {
	ch <- 1 // want "capacity cannot be proven"
}

// Negative: select-with-default drops instead of blocking.
func guarded(s *S) {
	select {
	case s.ch <- 3:
	default:
	}
}

// Negative: a locally made buffered channel absorbs the send.
func bufferedOK() {
	ch := make(chan int, 8)
	ch <- 1
}

// Negative: dynamic capacities count as buffered.
func dynamicOK(n int) {
	ch := make(chan int, n)
	ch <- 1
}

// Suppressed: a startup handshake where the receiver is guaranteed.
func suppressedSend(s *S) {
	//lint:ignore chandiscipline startup handshake, receiver started first
	s.ch <- 4
}

// Positive: inside a hotpath function even a buffered send must be guarded.
//
//sensolint:hotpath
func hotSend(done *S) {
	ch := make(chan int, 64)
	ch <- 1 // want "must be select-with-default"
}

// Negative: the guarded form is the hotpath idiom.
//
//sensolint:hotpath
func hotGuarded(ch chan int) int {
	select {
	case ch <- 1:
		return 1
	default:
		return 0
	}
}

// G is generic; each instantiation's field is a different object from the
// field the make site below initializes.
type G[T any] struct{ q chan T }

func newG[T any]() *G[T] { return &G[T]{q: make(chan T, 4)} }

// Negative: the make site of the generic field proves it buffered.
func (g *G[T]) put(v T) {
	g.q <- v
}

// U is generic with an unbuffered field.
type U[T any] struct{ q chan T }

func newU[T any]() *U[T] { return &U[T]{q: make(chan T)} }

// Positive: the generic field's make site is unbuffered.
func (u *U[T]) put(v T) {
	u.q <- v // want "unbuffered channel"
}
